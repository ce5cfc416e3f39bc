"""Tests for repro.circuit.netlist."""

import numpy as np
import pytest

from repro.circuit.netlist import Netlist


def build_diamond() -> Netlist:
    """a -> (top, bottom) -> out: the smallest reconvergent structure."""
    netlist = Netlist("diamond")
    netlist.add_primary_input("a")
    netlist.add_gate("top", "INV", ["a"])
    netlist.add_gate("bottom", "INV", ["a"])
    netlist.add_gate("out", "NAND2", ["top", "bottom"])
    netlist.mark_primary_output("out")
    return netlist


class TestConstruction:
    def test_counts(self):
        netlist = build_diamond()
        assert netlist.n_gates == 3
        assert len(netlist) == 3
        assert netlist.primary_inputs == ["a"]
        assert netlist.primary_outputs == ["out"]

    def test_duplicate_names_rejected(self):
        from repro.circuit.netlist import NetlistError

        netlist = build_diamond()
        with pytest.raises(ValueError):
            netlist.add_gate("top", "INV", ["a"])
        with pytest.raises(ValueError):
            netlist.add_primary_input("a")
        # A gate may not reuse a primary input's name, nor the reverse.
        with pytest.raises(NetlistError, match="duplicate gate name 'a'"):
            netlist.add_gate("a", "INV", ["top"])
        with pytest.raises(NetlistError, match="node 'top' already exists"):
            netlist.add_primary_input("top")
        assert netlist.primary_inputs == ["a"]
        assert netlist.n_gates == 3

    def test_unknown_fanin_rejected(self):
        netlist = Netlist("n")
        netlist.add_primary_input("a")
        with pytest.raises(KeyError):
            netlist.add_gate("g", "INV", ["missing"])

    def test_wrong_pin_count_rejected(self):
        netlist = Netlist("n")
        netlist.add_primary_input("a")
        with pytest.raises(ValueError):
            netlist.add_gate("g", "NAND2", ["a"])

    def test_unknown_cell_rejected(self):
        netlist = Netlist("n")
        netlist.add_primary_input("a")
        with pytest.raises(KeyError):
            netlist.add_gate("g", "NAND77", ["a"])

    def test_nonpositive_size_rejected(self):
        netlist = Netlist("n")
        netlist.add_primary_input("a")
        with pytest.raises(ValueError):
            netlist.add_gate("g", "INV", ["a"], size=0.0)

    def test_mark_unknown_output_rejected(self):
        netlist = build_diamond()
        with pytest.raises(KeyError):
            netlist.mark_primary_output("nope")


class TestTopology:
    def test_topological_order_respects_fanins(self):
        netlist = build_diamond()
        order = netlist.topological_order()
        assert order.index("top") < order.index("out")
        assert order.index("bottom") < order.index("out")

    def test_fanout_indices_are_inverse_of_fanins(self):
        netlist = build_diamond()
        index = netlist.gate_index()
        fanouts = netlist.fanout_indices()
        assert index["out"] in fanouts[index["top"]]
        assert index["out"] in fanouts[index["bottom"]]

    def test_cycle_detection(self):
        netlist = Netlist("cyclic")
        netlist.add_primary_input("a")
        netlist.add_gate("g1", "INV", ["a"])
        netlist.add_gate("g2", "INV", ["g1"])
        # Rewire g1 to close a cycle by editing the gate object directly.
        netlist.gate("g1").fanins = ("g2",)
        netlist._dirty = True
        with pytest.raises(ValueError):
            netlist.topological_order()

    def test_logic_depth_of_diamond(self):
        assert build_diamond().logic_depth() == 2

    def test_levels(self):
        netlist = build_diamond()
        levels = netlist.levels()
        index = netlist.gate_index()
        assert levels[index["top"]] == 1
        assert levels[index["out"]] == 2


class TestSizesAndLoads:
    def test_size_roundtrip(self):
        netlist = build_diamond()
        sizes = np.array([2.0, 3.0, 1.5])
        netlist.set_sizes(sizes)
        assert np.allclose(netlist.sizes(), sizes)

    def test_set_sizes_validates(self):
        netlist = build_diamond()
        with pytest.raises(ValueError):
            netlist.set_sizes(np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            netlist.set_sizes(np.array([1.0, -2.0, 1.0]))

    def test_loads_include_fanout_input_caps(self):
        netlist = build_diamond()
        index = netlist.gate_index()
        loads = netlist.load_capacitances()
        nand_cin = netlist.library["NAND2"].input_capacitance(1.0, netlist.technology)
        assert loads[index["top"]] == pytest.approx(nand_cin)

    def test_output_gate_gets_default_load(self):
        netlist = build_diamond()
        index = netlist.gate_index()
        loads = netlist.load_capacitances()
        assert loads[index["out"]] == pytest.approx(netlist.default_output_load)

    def test_upsizing_fanout_increases_driver_load(self):
        netlist = build_diamond()
        index = netlist.gate_index()
        before = netlist.load_capacitances()[index["top"]]
        sizes = netlist.sizes()
        sizes[index["out"]] = 4.0
        after = netlist.load_capacitances(sizes)[index["top"]]
        assert after == pytest.approx(4.0 * before)

    def test_sizes_and_positions_are_copies(self):
        netlist = build_diamond()
        netlist.auto_place()
        sizes = netlist.sizes()
        xs, ys = netlist.positions()
        sizes[:] = 7.0
        xs[:] = -1.0
        ys[:] = -1.0
        assert np.array_equal(netlist.sizes(), np.ones(3))
        fresh_x, fresh_y = netlist.positions()
        assert np.all(fresh_x >= 0.0) and np.all(fresh_y >= 0.0)

    def test_set_sizes_and_gate_writes_see_each_other(self):
        netlist = build_diamond()
        index = netlist.gate_index()
        sizes = np.array([2.0, 3.0, 1.5])
        netlist.set_sizes(sizes)
        for name, position in index.items():
            assert netlist.gate(name).size == sizes[position]
        netlist.gate("out").size = 6.0
        netlist.gate("top").x = 0.125
        expected = sizes.copy()
        expected[index["out"]] = 6.0
        assert np.array_equal(netlist.sizes(), expected)
        assert netlist.positions()[0][index["top"]] == 0.125
        assert isinstance(netlist.gate("out").size, float)

    def test_sizes_follow_topological_not_insertion_order(self):
        netlist = Netlist("fwd")
        netlist.add_primary_input("a")
        netlist.add_gate("late", "INV", ["early"], size=3.0, allow_forward=True)
        netlist.add_gate("early", "NAND2", ["a", "a"], size=2.0)
        assert netlist.topological_order() == ["early", "late"]
        assert np.array_equal(netlist.sizes(), [2.0, 3.0])
        assert np.array_equal(netlist.cell_coefficients()["n_inputs"], [2, 1])
        netlist.set_sizes(np.array([4.0, 5.0]))
        assert netlist.gate("early").size == 4.0
        assert netlist.gate("late").size == 5.0

    def test_total_area_scales_with_sizes(self):
        netlist = build_diamond()
        base = netlist.total_area()
        doubled = netlist.total_area(2.0 * netlist.sizes())
        assert doubled == pytest.approx(2.0 * base)


class TestPlacementAndCopy:
    def test_auto_place_within_region(self):
        netlist = build_diamond()
        netlist.auto_place((0.25, 0.0, 0.5, 1.0))
        xs, ys = netlist.positions()
        assert np.all((xs >= 0.25) & (xs <= 0.5))
        assert np.all((ys >= 0.0) & (ys <= 1.0))

    def test_auto_place_orders_levels_left_to_right(self):
        netlist = build_diamond()
        netlist.auto_place()
        index = netlist.gate_index()
        xs, _ = netlist.positions()
        assert xs[index["top"]] < xs[index["out"]]

    def test_auto_place_matches_per_gate_loop(self):
        from repro.circuit.generators import random_logic_block

        netlist = random_logic_block(
            "blk", n_gates=300, depth=9, n_inputs=12, n_outputs=6, seed=4
        )
        x0, y0, x1, y1 = 0.1, 0.25, 0.7, 0.9
        netlist.auto_place((x0, y0, x1, y1))
        # Reference: the per-gate loop over levels in topological order.
        levels = netlist.levels()
        max_level = int(levels.max())
        counts = {int(v): int((levels == v).sum()) for v in set(levels)}
        seen: dict[int, int] = {}
        expected_x, expected_y = [], []
        for level in (int(v) for v in levels):
            rank = seen.get(level, 0)
            seen[level] = rank + 1
            expected_x.append(x0 + (x1 - x0) * (level - 0.5) / max_level)
            expected_y.append(y0 + (y1 - y0) * (rank + 0.5) / counts[level])
        xs, ys = netlist.positions()
        assert np.array_equal(xs, expected_x)
        assert np.array_equal(ys, expected_y)

    def test_auto_place_rejects_bad_region(self):
        netlist = build_diamond()
        with pytest.raises(ValueError):
            netlist.auto_place((0.5, 0.0, 0.5, 1.0))

    def test_copy_is_deep(self):
        netlist = build_diamond()
        clone = netlist.copy()
        clone.gate("top").size = 8.0
        assert netlist.gate("top").size == pytest.approx(1.0)
        assert clone.primary_outputs == netlist.primary_outputs

    def test_copy_keeps_sizes_placement_and_structure(self):
        netlist = build_diamond()
        netlist.auto_place((0.25, 0.0, 0.5, 1.0))
        netlist.set_sizes(np.array([2.0, 3.0, 1.5]))
        clone = netlist.copy("twin")
        assert clone.name == "twin"
        assert clone.topological_order() == netlist.topological_order()
        assert np.array_equal(clone.sizes(), netlist.sizes())
        for ours, theirs in zip(clone.positions(), netlist.positions()):
            assert np.array_equal(ours, theirs)
        clone.set_sizes(np.full(3, 5.0))
        assert np.array_equal(netlist.sizes(), [2.0, 3.0, 1.5])

    def test_deleted_netlist_is_freed_without_the_cycle_collector(self):
        import gc
        import weakref

        from repro.circuit.ingest import scale_logic_block

        gc.disable()
        try:
            for build in (build_diamond, lambda: scale_logic_block("b", 64, seed=1)):
                netlist = build()
                netlist.gate(next(iter(netlist.gates))).size = 2.0
                netlist.sizes()
                netlist.load_capacitances()
                ref = weakref.ref(netlist)
                del netlist
                assert ref() is None
        finally:
            gc.enable()

    def test_copy_preserves_area(self):
        netlist = build_diamond()
        netlist.set_sizes(np.array([2.0, 2.0, 2.0]))
        assert netlist.copy().total_area() == pytest.approx(netlist.total_area())


class TestTypedErrors:
    def test_unknown_fanin_is_located(self):
        from repro.circuit.netlist import NetlistError

        netlist = build_diamond()
        with pytest.raises(NetlistError) as err:
            netlist.add_gate("bad", "INV", ["ghost"])
        assert err.value.netlist == "diamond"
        assert err.value.gate == "bad"
        assert err.value.net == "ghost"
        assert isinstance(err.value, ValueError)

    def test_duplicate_gate_is_located(self):
        from repro.circuit.netlist import NetlistError

        netlist = build_diamond()
        with pytest.raises(NetlistError) as err:
            netlist.add_gate("top", "INV", ["a"])
        assert err.value.gate == "top"
        assert "duplicate" in str(err.value)

    def test_forward_reference_deferred_then_validated(self):
        from repro.circuit.netlist import NetlistError

        netlist = Netlist("fwd")
        netlist.add_primary_input("a")
        netlist.add_gate("u", "NAND2", ["a", "ghost"], allow_forward=True)
        with pytest.raises(NetlistError) as err:
            netlist.validate()
        assert err.value.gate == "u"
        assert err.value.net == "ghost"
        # Supplying the missing driver afterwards makes it valid.
        netlist = Netlist("fwd")
        netlist.add_primary_input("a")
        netlist.add_gate("u", "NAND2", ["a", "later"], allow_forward=True)
        netlist.add_gate("later", "INV", ["a"])
        netlist.mark_primary_output("u")
        netlist.validate()
        assert netlist.logic_depth() == 2

    def test_cycle_error_names_the_cycle(self):
        from repro.circuit.netlist import NetlistError

        netlist = Netlist("loop")
        netlist.add_primary_input("a")
        netlist.add_gate("u", "NAND2", ["a", "w"], allow_forward=True)
        netlist.add_gate("v", "INV", ["u"])
        netlist.add_gate("w", "INV", ["v"])
        with pytest.raises(NetlistError) as err:
            netlist.validate()
        message = str(err.value)
        assert "cycle" in message
        assert "u -> " in message or "-> u" in message

    def test_lookup_error_is_both_keyerror_and_valueerror(self):
        from repro.circuit.netlist import NetlistLookupError

        netlist = build_diamond()
        with pytest.raises(NetlistLookupError) as err:
            netlist.mark_primary_output("ghost")
        assert isinstance(err.value, KeyError)
        assert isinstance(err.value, ValueError)
        # str() is the plain message, not KeyError's repr-quoted form.
        assert not str(err.value).startswith('"')
        assert "cannot mark unknown gate" in str(err.value)
