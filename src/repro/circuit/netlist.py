"""Gate-level netlist representation.

A :class:`Netlist` is a directed acyclic graph of sized, placed standard
cells.  It is the object every other substrate operates on: the deterministic
and statistical timers walk it in topological order, the Monte-Carlo engine
samples one set of process parameters per gate, and the sizers mutate gate
sizes in place.

Design notes
------------
* Gates and primary inputs are identified by string names; primary inputs
  are modelled as zero-delay sources.
* Per-gate numbers live in NumPy columns, not in per-gate objects: a
  :class:`GateColumns` store holds ``cell_id``, ``size``, ``x`` and ``y``
  with one row per gate in insertion order, and is their only copy.  The
  structural rebuild (lazy, after any structural change) computes the
  topological order and a permutation ``_perm`` from topological position
  to row, so :meth:`Netlist.sizes`, :meth:`Netlist.positions` and
  :meth:`Netlist.set_sizes` are one gather or scatter each, and
  :meth:`Netlist.cell_coefficients` is one gather by ``cell_id`` from the
  library's coefficient table.  Size writes need no rebuild.
* A :class:`Gate` is a slotted view of one row: ``name``, ``cell`` and
  ``fanins`` are its own attributes, while ``size``, ``x`` and ``y`` read
  and write the columns.  A view references the column store, never the
  :class:`Netlist`: a back-reference would make every netlist a
  reference cycle, which only the cyclic garbage collector frees, so
  large netlists would outlive their last use and raise peak memory.
* Placement is in normalised die coordinates ([0, 1] x [0, 1]).  A helper
  places gates by logic level inside an arbitrary rectangular region so a
  pipeline can lay its stages side by side across the die, which is what
  gives stages *partial* spatial correlation.
"""

from __future__ import annotations

import numpy as np

from repro.circuit.cell_library import CellLibrary, standard_cell_library
from repro.circuit.schedule import TimingSchedule, compile_schedule
from repro.process.technology import Technology, default_technology


class NetlistError(ValueError):
    """A structural netlist construction error, located at its cause.

    Carries the offending ``netlist`` name plus (when applicable) the
    ``gate`` and ``net`` involved, so parsers and generators can surface
    "gate G3 references undefined net n42" instead of a deep failure inside
    the topological sort.  Subclasses :class:`ValueError` so existing
    ``except ValueError`` call sites keep working.
    """

    def __init__(
        self,
        message: str,
        *,
        netlist: str | None = None,
        gate: str | None = None,
        net: str | None = None,
    ) -> None:
        super().__init__(message)
        self.message = message
        self.netlist = netlist
        self.gate = gate
        self.net = net

    def __str__(self) -> str:
        return self.message


class NetlistLookupError(NetlistError, KeyError):
    """A failed name lookup during netlist construction.

    Also subclasses :class:`KeyError` so callers that treat unknown
    cells/fanins/gates as key errors (the historical contract) keep working.
    """

    __str__ = NetlistError.__str__


class GateColumns:
    """Per-gate ``cell_id``/``size``/``x``/``y`` columns, one row per gate.

    Rows are in insertion order.  The arrays grow by doubling, so only the
    first ``n`` rows are live.
    """

    _COLUMNS = ("cell_id", "size", "x", "y")
    __slots__ = ("n",) + _COLUMNS

    def __init__(self, capacity: int = 16) -> None:
        self.n = 0
        self.cell_id = np.empty(capacity, dtype=np.intp)
        self.size = np.empty(capacity)
        self.x = np.empty(capacity)
        self.y = np.empty(capacity)

    def append(self, cell_id: int, size: float, x: float, y: float) -> int:
        """Add one row and return its index."""
        row = self.n
        if row == self.size.shape[0]:
            for column in self._COLUMNS:
                old = getattr(self, column)
                grown = np.empty(2 * row, dtype=old.dtype)
                grown[:row] = old
                setattr(self, column, grown)
        self.cell_id[row] = cell_id
        self.size[row] = size
        self.x[row] = x
        self.y[row] = y
        self.n = row + 1
        return row

    def copy(self) -> "GateColumns":
        """Independent copy of the live rows."""
        clone = GateColumns(max(self.n, 1))  # non-empty, so appends can double it
        for column in self._COLUMNS:
            getattr(clone, column)[: self.n] = getattr(self, column)[: self.n]
        clone.n = self.n
        return clone


class _Column:
    """Descriptor exposing one :class:`GateColumns` column on a :class:`Gate`."""

    def __set_name__(self, owner, name: str) -> None:
        self.column = name

    def __get__(self, gate, owner=None):
        if gate is None:
            return self
        return float(getattr(gate._columns, self.column)[gate._row])

    def __set__(self, gate, value: float) -> None:
        getattr(gate._columns, self.column)[gate._row] = value


class Gate:
    """One sized, placed cell instance: a view of one netlist row.

    Attributes
    ----------
    name:
        Unique gate name within the netlist.
    cell:
        Name of the cell type in the library (e.g. ``"NAND2"``).
    fanins:
        Names of the driving nodes (gates or primary inputs), in pin order.
    size:
        Drive strength in multiples of a minimum-size device (writable;
        stored in the netlist's size column).
    x, y:
        Placement in normalised die coordinates (writable; stored in the
        netlist's placement columns).
    """

    __slots__ = ("name", "cell", "fanins", "_columns", "_row")

    size = _Column()
    x = _Column()
    y = _Column()

    def __init__(
        self,
        name: str,
        cell: str,
        fanins: tuple[str, ...],
        columns: GateColumns,
        row: int,
    ) -> None:
        self.name = name
        self.cell = cell
        self.fanins = fanins
        self._columns = columns
        self._row = row

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Gate({self.name!r}, {self.cell!r}, fanins={self.fanins!r}, "
            f"size={self.size!r}, x={self.x!r}, y={self.y!r})"
        )


class Netlist:
    """A combinational gate-level netlist (DAG of cells).

    Parameters
    ----------
    name:
        Netlist name, used in reports.
    library:
        Cell library the gates are drawn from.  Defaults to the standard
        library.
    technology:
        Technology node used for capacitance/area/delay computations.
    default_output_load:
        Capacitive load (in farads) attached to each primary output, on top
        of any internal fanout.  Defaults to the input capacitance of a
        size-2 inverter, approximating the downstream flip-flop data pin.
    """

    def __init__(
        self,
        name: str,
        library: CellLibrary | None = None,
        technology: Technology | None = None,
        default_output_load: float | None = None,
    ) -> None:
        self.name = name
        self.library = library if library is not None else standard_cell_library()
        self.technology = technology if technology is not None else default_technology()
        if default_output_load is None:
            default_output_load = 2.0 * self.technology.c_unit
        self.default_output_load = float(default_output_load)

        self._gates: dict[str, Gate] = {}
        self._columns = GateColumns()
        self._primary_inputs: list[str] = []
        # Membership beside the ordered list, so name checks are O(1).
        self._pi_set: set[str] = set()
        self._primary_outputs: list[str] = []
        self._dirty = True

        # Caches built by _rebuild()
        self._order: list[str] = []
        self._index: dict[str, int] = {}
        # Topological position -> row of the gate columns.
        self._perm: np.ndarray = np.zeros(0, dtype=np.intp)
        self._fanin_indices: list[list[int]] = []
        self._fanout_indices: list[list[int]] = []
        self._is_po: np.ndarray = np.zeros(0, dtype=bool)
        # Compiled timing schedule (levelized CSR), built lazily per
        # structural version; see timing_schedule().
        self._structure_version = 0
        self._schedule: TimingSchedule | None = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_primary_input(self, name: str) -> None:
        """Declare a primary input node."""
        if name in self._gates or name in self._pi_set:
            raise NetlistError(
                f"node {name!r} already exists in netlist {self.name!r}",
                netlist=self.name,
                gate=name,
            )
        self._primary_inputs.append(name)
        self._pi_set.add(name)
        self._dirty = True

    def add_gate(
        self,
        name: str,
        cell: str,
        fanins: list[str] | tuple[str, ...],
        size: float = 1.0,
        x: float = 0.5,
        y: float = 0.5,
        allow_forward: bool = False,
    ) -> Gate:
        """Add a gate driven by the named fanin nodes and return it.

        ``allow_forward=True`` defers the fanin-existence check to the next
        structural rebuild, so file parsers can add gates in file order even
        when a fanin net is defined further down; a fanin that is *never*
        defined still raises a located :class:`NetlistError` (at
        :meth:`validate` or first structural query) rather than silently
        levelising wrong.
        """
        if name in self._gates or name in self._pi_set:
            raise NetlistError(
                f"duplicate gate name {name!r} in netlist {self.name!r}",
                netlist=self.name,
                gate=name,
            )
        if cell not in self.library:
            raise NetlistLookupError(
                f"gate {name!r}: cell {cell!r} not in library for netlist "
                f"{self.name!r}; available cells: {self.library.names}",
                netlist=self.name,
                gate=name,
            )
        cell_obj = self.library[cell]
        fanins = tuple(fanins)
        if len(fanins) != cell_obj.n_inputs:
            raise NetlistError(
                f"gate {name!r}: cell {cell} expects {cell_obj.n_inputs} fanins, "
                f"got {len(fanins)}",
                netlist=self.name,
                gate=name,
            )
        if not allow_forward:
            for fanin in fanins:
                if fanin not in self._gates and fanin not in self._pi_set:
                    raise NetlistLookupError(
                        f"gate {name!r}: fanin {fanin!r} is not a known gate or "
                        f"primary input",
                        netlist=self.name,
                        gate=name,
                        net=fanin,
                    )
        if size <= 0.0:
            raise NetlistError(
                f"gate {name!r}: size must be positive, got {size}",
                netlist=self.name,
                gate=name,
            )
        row = self._columns.append(self.library.cell_id(cell), size, x, y)
        gate = Gate(name, cell, fanins, self._columns, row)
        self._gates[name] = gate
        self._dirty = True
        return gate

    def mark_primary_output(self, name: str) -> None:
        """Mark a gate as a primary output of the block."""
        if name not in self._gates:
            raise NetlistLookupError(
                f"cannot mark unknown gate {name!r} as primary output of "
                f"netlist {self.name!r}",
                netlist=self.name,
                gate=name,
            )
        if name not in self._primary_outputs:
            self._primary_outputs.append(name)
            self._dirty = True

    def validate(self) -> None:
        """Eagerly check structural integrity (dangling fanins, cycles).

        Parsers that build with ``allow_forward=True`` call this once at the
        end of the file so a gate whose fanin names a net that is never
        defined, or a combinational cycle, surfaces as a located
        :class:`NetlistError` at parse time.
        """
        self._ensure_current()

    # ------------------------------------------------------------------
    # Basic queries
    # ------------------------------------------------------------------
    @property
    def gates(self) -> dict[str, Gate]:
        """Mapping of gate name to :class:`Gate` (insertion ordered)."""
        return self._gates

    @property
    def primary_inputs(self) -> list[str]:
        """Names of the primary inputs."""
        return list(self._primary_inputs)

    @property
    def primary_outputs(self) -> list[str]:
        """Names of the gates marked as primary outputs."""
        return list(self._primary_outputs)

    @property
    def n_gates(self) -> int:
        """Number of gates (excluding primary inputs)."""
        return len(self._gates)

    def __len__(self) -> int:
        return len(self._gates)

    def __contains__(self, name: str) -> bool:
        return name in self._gates

    def gate(self, name: str) -> Gate:
        """Look up a gate by name."""
        try:
            return self._gates[name]
        except KeyError:
            raise KeyError(f"no gate named {name!r} in netlist {self.name!r}") from None

    # ------------------------------------------------------------------
    # Structure caches
    # ------------------------------------------------------------------
    def _rebuild(self) -> None:
        """Rebuild topological order, index maps and fanin/fanout caches."""
        order: list[str] = []
        index: dict[str, int] = {}
        in_degree: dict[str, int] = {}
        pi_set = self._pi_set
        dangling: list[tuple[str, str]] = []
        dependents: dict[str, list[str]] = {name: [] for name in self._primary_inputs}
        for gate in self._gates.values():
            dependents.setdefault(gate.name, [])
            gate_fanin_count = 0
            for fanin in gate.fanins:
                if fanin in self._gates:
                    gate_fanin_count += 1
                elif fanin not in pi_set:
                    dangling.append((gate.name, fanin))
                dependents.setdefault(fanin, []).append(gate.name)
            in_degree[gate.name] = gate_fanin_count

        if dangling:
            gate_name, net = dangling[0]
            listing = ", ".join(
                f"{g!r} -> {n!r}" for g, n in dangling[:5]
            ) + ("..." if len(dangling) > 5 else "")
            raise NetlistError(
                f"netlist {self.name!r} has {len(dangling)} fanin reference(s) to "
                f"net(s) that are never defined (gate -> missing net): {listing}",
                netlist=self.name,
                gate=gate_name,
                net=net,
            )

        ready = [name for name, degree in in_degree.items() if degree == 0]
        ready.sort()
        position = 0
        ready_set = list(ready)
        while position < len(ready_set):
            name = ready_set[position]
            position += 1
            index[name] = len(order)
            order.append(name)
            for successor in dependents.get(name, []):
                in_degree[successor] -= 1
                if in_degree[successor] == 0:
                    ready_set.append(successor)

        if len(order) != len(self._gates):
            unresolved = set(self._gates) - set(order)
            cycle = self._find_cycle(unresolved)
            raise NetlistError(
                f"netlist {self.name!r} contains a combinational cycle: "
                f"{' -> '.join(cycle)} -> {cycle[0]}",
                netlist=self.name,
                gate=cycle[0],
            )

        fanin_indices: list[list[int]] = []
        fanout_indices: list[list[int]] = [[] for _ in order]
        for name in order:
            gate = self._gates[name]
            fanins = [index[f] for f in gate.fanins if f in self._gates]
            fanin_indices.append(fanins)
        for gate_pos, fanins in enumerate(fanin_indices):
            for fanin_pos in fanins:
                fanout_indices[fanin_pos].append(gate_pos)

        is_po = np.zeros(len(order), dtype=bool)
        for name in self._primary_outputs:
            is_po[index[name]] = True

        self._order = order
        self._index = index
        self._perm = np.fromiter(
            (self._gates[name]._row for name in order), dtype=np.intp, count=len(order)
        )
        self._fanin_indices = fanin_indices
        self._fanout_indices = fanout_indices
        self._is_po = is_po
        self._structure_version += 1
        self._schedule = None
        self._dirty = False

    def _find_cycle(self, unresolved: set[str]) -> list[str]:
        """Walk the unresolved gates to extract one actual cycle path."""
        start = min(unresolved)
        path: list[str] = []
        seen: dict[str, int] = {}
        node = start
        while node not in seen:
            seen[node] = len(path)
            path.append(node)
            # Follow any fanin that is itself unresolved; one always exists,
            # otherwise the gate would have been scheduled.
            node = next(f for f in self._gates[node].fanins if f in unresolved)
        return path[seen[node]:]

    def _ensure_current(self) -> None:
        if self._dirty:
            self._rebuild()

    def topological_order(self) -> list[str]:
        """Gate names in a valid topological (fanin-before-fanout) order."""
        self._ensure_current()
        return list(self._order)

    def gate_index(self) -> dict[str, int]:
        """Mapping from gate name to its position in topological order."""
        self._ensure_current()
        return dict(self._index)

    def fanin_indices(self) -> list[list[int]]:
        """Per-gate list of fanin positions (topological indexing)."""
        self._ensure_current()
        return self._fanin_indices

    def fanout_indices(self) -> list[list[int]]:
        """Per-gate list of fanout positions (topological indexing)."""
        self._ensure_current()
        return self._fanout_indices

    def output_mask(self) -> np.ndarray:
        """Boolean mask (topological indexing) of primary-output gates."""
        self._ensure_current()
        return self._is_po.copy()

    def timing_schedule(self) -> TimingSchedule:
        """Compiled levelized CSR schedule for the current structure.

        The schedule is cached per structural version: adding gates or
        marking outputs invalidates it (through ``_ensure_current``), while
        size mutations -- the sizers' inner loop -- reuse it unchanged.
        """
        self._ensure_current()
        if self._schedule is None:
            self._schedule = compile_schedule(
                self._fanin_indices, self._fanout_indices, self._structure_version
            )
        return self._schedule

    # ------------------------------------------------------------------
    # Vectorised attribute access (topological indexing)
    # ------------------------------------------------------------------
    def sizes(self) -> np.ndarray:
        """Gate sizes as a new array in topological order."""
        self._ensure_current()
        return self._columns.size[self._perm]

    def set_sizes(self, sizes: np.ndarray) -> None:
        """Assign gate sizes from an array in topological order."""
        self._ensure_current()
        sizes = np.asarray(sizes, dtype=float)
        if sizes.shape != (len(self._order),):
            raise ValueError(
                f"expected {len(self._order)} sizes, got array of shape {sizes.shape}"
            )
        if np.any(sizes <= 0.0):
            raise ValueError("all gate sizes must be positive")
        self._columns.size[self._perm] = sizes

    def positions(self) -> tuple[np.ndarray, np.ndarray]:
        """Gate placement coordinates (x, y) as new arrays in topological order."""
        self._ensure_current()
        return self._columns.x[self._perm], self._columns.y[self._perm]

    def _coefficient(self, name: str) -> np.ndarray:
        """One library coefficient per gate (topological order)."""
        return self.library.coefficients[name][self._columns.cell_id[self._perm]]

    def cell_coefficients(self) -> dict[str, np.ndarray]:
        """Per-gate cell coefficients (topological order).

        Returns a dict with arrays ``logical_effort``, ``parasitic_delay``,
        ``area_factor`` and ``n_inputs``.
        """
        self._ensure_current()
        return {name: self._coefficient(name) for name in self.library.coefficients}

    def load_capacitances(self, sizes: np.ndarray | None = None) -> np.ndarray:
        """Output load of every gate in farads (topological order).

        The load is the sum of the input capacitances of the fanout gates
        plus ``default_output_load`` for gates marked as primary outputs.

        Parameters
        ----------
        sizes:
            Optional size vector to evaluate loads at (without mutating the
            netlist); defaults to the current gate sizes.
        """
        self._ensure_current()
        if sizes is None:
            sizes = self.sizes()
        else:
            sizes = np.asarray(sizes, dtype=float)
        pin_caps = self._coefficient("logical_effort") * self.technology.c_unit * sizes
        schedule = self.timing_schedule()
        # Every fanin arc (source -> owner) contributes the owner's pin
        # capacitance to the source's load; one bincount sums them all.
        # (bincount returns int64 for an empty weighted input, so force the
        # dtype for edge-free netlists.)
        loads = np.bincount(
            schedule.fanin_idx,
            weights=pin_caps[schedule.edge_owner],
            minlength=schedule.n_gates,
        ).astype(float)
        loads[self._is_po] += self.default_output_load
        # Gates with no fanout and not marked as outputs still drive something
        # downstream in a real design; give them the default load so their
        # delay is finite and size-sensitive.
        dangling = (schedule.fanout_counts == 0) & ~self._is_po
        loads[dangling] += self.default_output_load
        return loads

    # ------------------------------------------------------------------
    # Aggregate properties
    # ------------------------------------------------------------------
    def total_area(self, sizes: np.ndarray | None = None) -> float:
        """Total layout area in square micrometres."""
        self._ensure_current()
        if sizes is None:
            sizes = self.sizes()
        return float(
            (
                self._coefficient("area_factor")
                * self.technology.area_unit
                * np.asarray(sizes)
            ).sum()
        )

    def logic_depth(self) -> int:
        """Maximum number of gates on any input-to-output path."""
        return self.timing_schedule().n_levels

    def levels(self) -> np.ndarray:
        """Logic level of every gate (topological order), starting at 1."""
        return self.timing_schedule().levels.astype(int) + 1

    # ------------------------------------------------------------------
    # Placement
    # ------------------------------------------------------------------
    def auto_place(
        self,
        region: tuple[float, float, float, float] = (0.0, 0.0, 1.0, 1.0),
    ) -> None:
        """Place gates by logic level inside a rectangular die region.

        Gates at the same level are spread vertically; successive levels
        advance horizontally across the region.  This gives a physically
        plausible layout in which gates that are logically close are also
        spatially close, which is what couples logic structure to the
        spatially correlated variation component.

        Parameters
        ----------
        region:
            ``(x0, y0, x1, y1)`` rectangle in normalised die coordinates.
        """
        x0, y0, x1, y1 = region
        if not (0.0 <= x0 < x1 <= 1.0 and 0.0 <= y0 < y1 <= 1.0):
            raise ValueError(f"invalid placement region {region}")
        self._ensure_current()
        levels = self.levels()
        max_level = int(levels.max()) if len(levels) else 1
        # Rank of each gate among its level's gates, in topological order.
        by_level = np.argsort(levels, kind="stable")
        counts = np.bincount(levels)
        starts = np.cumsum(counts) - counts
        rank = np.empty_like(levels)
        rank[by_level] = np.arange(levels.shape[0]) - starts[levels[by_level]]
        self._columns.x[self._perm] = x0 + (x1 - x0) * (levels - 0.5) / max_level
        self._columns.y[self._perm] = y0 + (y1 - y0) * (rank + 0.5) / counts[levels]

    # ------------------------------------------------------------------
    # Copying
    # ------------------------------------------------------------------
    def copy(self, name: str | None = None) -> "Netlist":
        """Deep copy of the netlist (gates, sizes, placement, outputs)."""
        clone = Netlist(
            name if name is not None else self.name,
            library=self.library,
            technology=self.technology,
            default_output_load=self.default_output_load,
        )
        clone._primary_inputs = list(self._primary_inputs)
        clone._pi_set = set(self._pi_set)
        clone._primary_outputs = list(self._primary_outputs)
        clone._columns = columns = self._columns.copy()
        clone._gates = {
            name: Gate(name, gate.cell, gate.fanins, columns, gate._row)
            for name, gate in self._gates.items()
        }
        return clone

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Netlist({self.name!r}, gates={self.n_gates}, "
            f"inputs={len(self._primary_inputs)}, outputs={len(self._primary_outputs)}, "
            f"depth={self.logic_depth()})"
        )
