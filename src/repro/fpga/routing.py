"""Routing-fabric model: wires, programmable interconnect points (PIPs) and
the connectivity rules that generate them.

Routing resources are identified by plain tuples so they can be used as
dictionary keys and serialized cheaply:

* ``("opin", x, y, pin)``  — a slice output pin (``X``/``Y``/``XQ``/``YQ``)
* ``("ipin", x, y, pin)``  — a slice input pin (``F1``..``G4``, ``BX``,
  ``BY``, ``CE``, ``SR``)
* ``("wire", x, y, d, i)`` — general routing wire *i* leaving tile ``(x, y)``
  in direction *d* and terminating in the adjacent tile
* ``("pad_o", k)``         — the fabric-driving side of I/O pad *k* (used
  when the pad is an input of the design)
* ``("pad_i", k)``         — the fabric-reading side of I/O pad *k* (used
  when the pad is an output of the design)

A PIP is a directed ``(source_node, sink_node)`` pair controlled by one
configuration bit.  The connectivity rules below are deterministic functions
of the device geometry: :class:`RoutingGraph` derives the router's
neighbour lists from them in one pass, and the configuration layout
enumerates one tile per tile class and numbers every PIP of the device
from it (:class:`repro.fpga.config.PipTable`).

All PIP bits are modelled as independent pass-transistor-style bits.  This is
the simplification that lets a single flipped bit produce the paper's four
routing-upset effects directly: turning a used PIP off is an *Open*; turning
an unused PIP on can create a *Bridge*, a *Conflict* or an *Input-Antenna*
depending on whether its two ends are used (see
:mod:`repro.faults.models`).
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from typing import Dict, List, Optional, Tuple

from .device import (DIRECTIONS, OPPOSITE, SLICE_INPUT_PINS, SLICE_OUTPUT_PINS, Device)

Node = Tuple
Pip = Tuple[Node, Node]

_OPIN_ORDINAL = {pin: index for index, pin in enumerate(SLICE_OUTPUT_PINS)}
_IPIN_ORDINAL = {pin: index for index, pin in enumerate(SLICE_INPUT_PINS)}
_SORTED_DIRECTIONS = sorted(DIRECTIONS.items())
#: Offset of each pin's node id from its tile's first pin id (graph ids
#: follow sorted node order, so a tile's pins have consecutive ids).
_FIRST_OPIN, _FIRST_IPIN = min(SLICE_OUTPUT_PINS), min(SLICE_INPUT_PINS)
_OPIN_RANKS = [sorted(SLICE_OUTPUT_PINS).index(pin) for pin in SLICE_OUTPUT_PINS]
_IPIN_RANKS = [sorted(SLICE_INPUT_PINS).index(pin) for pin in SLICE_INPUT_PINS]


# ----------------------------------------------------------------------
# Node constructors / predicates
# ----------------------------------------------------------------------
def opin(x: int, y: int, pin: str) -> Node:
    return ("opin", x, y, pin)


def ipin(x: int, y: int, pin: str) -> Node:
    return ("ipin", x, y, pin)


def wire(x: int, y: int, direction: str, index: int) -> Node:
    return ("wire", x, y, direction, index)


def pad_output(pad_index: int) -> Node:
    return ("pad_o", pad_index)


def pad_input(pad_index: int) -> Node:
    return ("pad_i", pad_index)


def node_kind(node: Node) -> str:
    return node[0]


def node_tile(device: Device, node: Node) -> Tuple[int, int]:
    """The tile a node belongs to (a pad belongs to its perimeter tile)."""
    kind = node[0]
    if kind in ("opin", "ipin", "wire"):
        return (node[1], node[2])
    pad = device.pads[node[1]]
    return (pad.x, pad.y)


def wire_far_end(device: Device, node: Node) -> Optional[Tuple[int, int]]:
    """The tile a wire terminates in (None if it would leave the array)."""
    _, x, y, direction, _index = node
    return device.neighbor(x, y, direction)


# ----------------------------------------------------------------------
# Connectivity rules
# ----------------------------------------------------------------------
def opin_wire_indices(device: Device, pin: str) -> List[int]:
    """Wire indices a slice output pin may drive (4 consecutive indices)."""
    width = device.spec.wires_per_direction
    base = (2 * _OPIN_ORDINAL[pin]) % width
    return [(base + offset) % width for offset in range(min(4, width))]


def pad_wire_indices(device: Device, pad_index: int) -> List[int]:
    """Wire indices an input pad may drive."""
    width = device.spec.wires_per_direction
    base = (3 * pad_index) % width
    return [(base + offset) % width for offset in range(min(4, width))]


def ipin_accepts(device: Device, pin: str, wire_index: int) -> bool:
    """Whether a slice input pin's mux has a PIP from wires of this index.

    Input muxes are fully populated (every arriving wire index is a
    candidate), which mirrors the large input multiplexers of the Spartan-II
    CLB and keeps the fabric easily routable.
    """
    return True


def pad_accepts(pad_index: int, wire_index: int) -> bool:
    """Whether an output pad's mux has a PIP from wires of this index."""
    return True


def spip_out_indices(device: Device, in_direction: str, out_direction: str,
                     wire_index: int) -> List[int]:
    """Outgoing wire indices reachable from an arriving wire in a switch box.

    Turning connections keep the wire index ("subset" switch box); the
    straight-through connection additionally offers ``index + 2``, giving the
    router some track mobility along long straight runs.
    """
    width = device.spec.wires_per_direction
    if out_direction == in_direction:
        return [wire_index, (wire_index + 2) % width]
    return [wire_index]


def opin_feeds_ipin(pin_out: str, pin_in: str) -> bool:
    """Whether a local feedback PIP exists from an output pin to an input pin.

    The dedicated LUT→FF data path inside the slice is *not* a PIP (it is the
    DMUX slice configuration bit); these feedback PIPs model the local lines
    that let a slice output reach the inputs of its own tile without using
    general routing.
    """
    return (_OPIN_ORDINAL[pin_out] + _IPIN_ORDINAL[pin_in]) % 2 == 0


def incoming_wires(device: Device, x: int, y: int) -> List[Node]:
    """Wires owned by neighbouring tiles that terminate in tile ``(x, y)``."""
    result: List[Node] = []
    width = device.spec.wires_per_direction
    for direction, (dx, dy) in DIRECTIONS.items():
        # A wire arriving here travels in `direction` from the tile at the
        # opposite offset.
        source_x, source_y = x - dx, y - dy
        if not device.in_bounds(source_x, source_y):
            continue
        for index in range(width):
            result.append(wire(source_x, source_y, direction, index))
    return result


def downhill(device: Device, node: Node) -> List[Node]:
    """All nodes reachable from *node* through exactly one PIP."""
    kind = node[0]
    width = device.spec.wires_per_direction
    result: List[Node] = []

    if kind == "opin":
        _, x, y, pin = node
        indices = opin_wire_indices(device, pin)
        for direction in DIRECTIONS:
            if device.wire_exists(x, y, direction):
                for index in indices:
                    result.append(wire(x, y, direction, index))
        for pin_in in SLICE_INPUT_PINS:
            if opin_feeds_ipin(pin, pin_in):
                result.append(ipin(x, y, pin_in))
        for pad in device.pads_at(x, y):
            result.append(pad_input(pad.index))
        return result

    if kind == "pad_o":
        pad = device.pads[node[1]]
        indices = pad_wire_indices(device, node[1])
        for direction in DIRECTIONS:
            if device.wire_exists(pad.x, pad.y, direction):
                for index in indices:
                    result.append(wire(pad.x, pad.y, direction, index))
        for pin_in in SLICE_INPUT_PINS:
            if (node[1] + _IPIN_ORDINAL[pin_in]) % 2 == 0:
                result.append(ipin(pad.x, pad.y, pin_in))
        return result

    if kind == "wire":
        _, x, y, direction, index = node
        target = device.neighbor(x, y, direction)
        if target is None:
            return result
        tx, ty = target
        comes_from = OPPOSITE[direction]
        for out_direction in DIRECTIONS:
            if out_direction == comes_from:
                continue
            if device.wire_exists(tx, ty, out_direction):
                for out_index in spip_out_indices(device, direction,
                                                  out_direction, index):
                    result.append(wire(tx, ty, out_direction, out_index))
        for pin_in in SLICE_INPUT_PINS:
            if ipin_accepts(device, pin_in, index):
                result.append(ipin(tx, ty, pin_in))
        for pad in device.pads_at(tx, ty):
            if pad_accepts(pad.index, index):
                result.append(pad_input(pad.index))
        return result

    # ipin and pad_i nodes are sinks: nothing downhill.
    return result


# ----------------------------------------------------------------------
# Flat indexed routing-resource graph
# ----------------------------------------------------------------------
class RoutingGraph:
    """The device's routing resources as flat integer-indexed arrays.

    The router's A* search spends nearly all of its time in its
    neighbour loop.  This class enumerates the full node universe once
    per device, assigns every node an integer id, and exposes

    * ``node_id`` / ``nodes`` — the tuple <-> id bijection,
    * ``tile_x`` / ``tile_y`` — per-id tile coordinates (a pad maps to its
      perimeter tile),
    * ``is_wire`` — the per-id kind predicate congestion is counted on,
    * :meth:`through` — per-id *through* neighbour ids: the node's
      :func:`downhill` list, in emission order, with the sinks (``ipin``
      and ``pad_i``) dropped,
    * ``box_mask_template`` / ``unbounded_mask`` — the router's
      one-byte-per-id candidate masks: the first blocks every wire and
      every sink (a router opens one net's box in its own copy, one
      :meth:`wire_span` per box column), the second blocks only sinks.

    A search enters exactly one sink, its target, and reaches it from
    the target's PIP fan-in (:meth:`repro.fpga.config.PipTable.bits_into`)
    instead of through the neighbour lists, which therefore hold about a
    third of the device's PIPs.  In :func:`downhill` order every sink
    comes after every non-sink, so a search that considers its target
    after a feeder's through neighbours visits edges in exactly the full
    list's order — heap tie-breaking, and therefore every route tree,
    stays bit-identical to the tuple router.  Nothing drives an ``opin``
    or a ``pad_o``, so every through neighbour is a wire.

    Ids are assigned in sorted node-tuple order, so sorting ids is the
    same as sorting tuples — the property the router's deterministic
    frontier seeding relies on.

    Graphs are memoized per :class:`~repro.fpga.device.DeviceSpec` via
    :func:`routing_graph`; one graph serves every net, negotiation
    iteration, design and placement attempt on that device profile, and
    nothing a search writes lives on it.
    """

    def __init__(self, device: Device) -> None:
        self.device = device
        width = device.spec.wires_per_direction
        nodes: List[Node] = []
        for x in range(device.columns):
            for y in range(device.rows):
                for pin in SLICE_OUTPUT_PINS:
                    nodes.append(opin(x, y, pin))
                for pin in SLICE_INPUT_PINS:
                    nodes.append(ipin(x, y, pin))
                for direction in DIRECTIONS:
                    if device.wire_exists(x, y, direction):
                        for index in range(width):
                            nodes.append(wire(x, y, direction, index))
        for pad in device.pads:
            nodes.append(pad_output(pad.index))
            nodes.append(pad_input(pad.index))
        nodes.sort()
        self.nodes: List[Node] = nodes
        self.node_id: Dict[Node, int] = {
            node: index for index, node in enumerate(nodes)}
        count = len(nodes)
        self.tile_x: List[int] = [0] * count
        self.tile_y: List[int] = [0] * count
        self.is_wire: List[bool] = [False] * count
        box_mask = bytearray(count)
        unbounded_mask = bytearray(count)
        for index, node in enumerate(nodes):
            tile = node_tile(device, node)
            self.tile_x[index] = tile[0]
            self.tile_y[index] = tile[1]
            kind = node[0]
            if kind == "wire":
                self.is_wire[index] = True
                box_mask[index] = 1
            elif kind in ("ipin", "pad_i"):
                box_mask[index] = unbounded_mask[index] = 1
        self.box_mask_template = bytes(box_mask)
        self.unbounded_mask = bytes(unbounded_mask)
        # A wire's tuple starts with its owning tile, so in sorted id
        # order the wires of tiles (x, 0) .. (x, rows - 1) follow each
        # other: _wire_first[x * rows + y] is the first of tile (x, y).
        self._wire_first = [bisect_left(nodes, ("wire", x, y))
                            for x in range(device.columns)
                            for y in range(device.rows)] + [count]
        self._through: Optional[List[Tuple[int, ...]]] = None

    def __len__(self) -> int:
        return len(self.nodes)

    def id_of(self, node: Node) -> int:
        return self.node_id[node]

    def wire_span(self, x: int, min_y: int, max_y: int) -> Tuple[int, int]:
        """Id range ``[start, stop)`` of the wires tiles ``(x, min_y)``
        .. ``(x, max_y)`` own: one contiguous span in sorted id order."""
        first = x * self.device.rows
        return (self._wire_first[first + min_y],
                self._wire_first[first + max_y + 1])

    def through(self) -> List[Tuple[int, ...]]:
        """Per-id through neighbour ids, built in one pass on first use.

        Each list is exactly :func:`downhill` without its sinks, in the
        same order (asserted over every node by the equivalence tests),
        but derived from integer id arithmetic instead of constructing
        and hashing one node tuple per neighbour.
        """
        if self._through is None:
            self._through = self._build_through()
        return self._through

    def _build_through(self) -> List[Tuple[int, ...]]:
        device = self.device
        width = device.spec.wires_per_direction
        rows = device.rows
        ordinal = {direction: index
                   for index, direction in enumerate(DIRECTIONS)}
        # first[(x * rows + y) * len(DIRECTIONS) + d]: the id of
        # wire(x, y, d, 0), or -1 where tile (x, y) owns no such wires.
        # Indices follow, so wire(x, y, d, i) is first + i.
        first = [-1] * (device.columns * rows * len(DIRECTIONS))
        for node_id, node in enumerate(self.nodes):
            if node[0] == "wire" and node[4] == 0:
                first[(node[1] * rows + node[2]) * len(DIRECTIONS)
                      + ordinal[node[3]]] = node_id
        # Per arriving direction: (outgoing ordinal, out indices per
        # arriving index), in downhill's outgoing-direction order.
        turns = {d_in: [(ordinal[d_out],
                         [spip_out_indices(device, d_in, d_out, index)
                          for index in range(width)])
                        for d_out in DIRECTIONS if d_out != OPPOSITE[d_in]]
                 for d_in in DIRECTIONS}
        opin_indices = {pin: opin_wire_indices(device, pin)
                        for pin in SLICE_OUTPUT_PINS}
        # The id ints node_id already holds, so the lists share them
        # instead of allocating one int object per edge.
        ids = list(self.node_id.values())

        def driven(x: int, y: int, indices: List[int]) -> Tuple[int, ...]:
            """Wires of tile (x, y) with these indices, all directions."""
            tile = (x * rows + y) * len(DIRECTIONS)
            return tuple([ids[first[tile + d] + index]
                          for d in range(len(DIRECTIONS))
                          if first[tile + d] >= 0 for index in indices])

        through: List[Tuple[int, ...]] = []
        for node in self.nodes:
            kind = node[0]
            if kind == "wire":
                _, x, y, direction, index = node
                dx, dy = DIRECTIONS[direction]
                tile = ((x + dx) * rows + y + dy) * len(DIRECTIONS)
                result: List[int] = []
                for d_out, out_indices in turns[direction]:
                    base = first[tile + d_out]
                    if base >= 0:
                        result.extend([ids[base + out_index] for out_index
                                       in out_indices[index]])
                through.append(tuple(result))
            elif kind == "opin":
                through.append(driven(node[1], node[2],
                                      opin_indices[node[3]]))
            elif kind == "pad_o":
                pad = device.pads[node[1]]
                through.append(driven(pad.x, pad.y,
                                      pad_wire_indices(device, node[1])))
            else:
                through.append(())  # ipin / pad_i: sinks drive nothing
        return through

    def tile_slot_ids(self, x: int, y: int) -> List[int]:
        """The ids of :func:`tile_pip_nodes` ``(x, y)``, in slot order.

        Ids follow sorted node order, so a tile's pins, the wires one
        tile owns, and the wires it owns in one direction, have
        consecutive ids: one lookup per group replaces building and
        hashing every node tuple.
        """
        device = self.device
        node_id = self.node_id
        width = device.spec.wires_per_direction
        columns, rows = device.columns, device.rows
        pads = device.pads_at(x, y)
        first = node_id[opin(x, y, _FIRST_OPIN)]
        ids = [first + rank for rank in _OPIN_RANKS]
        ids += [node_id[pad_output(pad.index)] for pad in pads]
        for direction, (dx, dy) in DIRECTIONS.items():
            if 0 <= x - dx < columns and 0 <= y - dy < rows:
                first = node_id[wire(x - dx, y - dy, direction, 0)]
                ids += range(first, first + width)
        owned = [direction for direction, (dx, dy) in _SORTED_DIRECTIONS
                 if 0 <= x + dx < columns and 0 <= y + dy < rows]
        first = node_id[wire(x, y, owned[0], 0)]
        ids += range(first, first + len(owned) * width)
        first = node_id[ipin(x, y, _FIRST_IPIN)]
        ids += [first + rank for rank in _IPIN_RANKS]
        ids += [node_id[pad_input(pad.index)] for pad in pads]
        return ids


#: RoutingGraph per DeviceSpec; specs are frozen dataclasses, and the
#: handful of device profiles bounds this cache naturally.
_GRAPH_CACHE: Dict[object, RoutingGraph] = {}
#: Held across the graph memo check and the build.  PIP-table builds take
#: it while holding their own lock, so a graph build must never ask for a
#: PIP table.
_GRAPH_LOCK = threading.Lock()


def routing_graph(device: Device) -> RoutingGraph:
    """The memoized flat routing graph of a device profile."""
    with _GRAPH_LOCK:
        graph = _GRAPH_CACHE.get(device.spec)
        if graph is None:
            graph = RoutingGraph(device)
            _GRAPH_CACHE[device.spec] = graph
    return graph


def clear_routing_graph_cache() -> None:
    """Drop memoized routing graphs (used by cold-start benchmarks).

    The PIP tables of :mod:`repro.fpga.config` are numbered by graph
    node ids, so they are dropped with the graphs.
    """
    from .config import clear_pip_tables

    _GRAPH_CACHE.clear()
    _TILE_PIP_TEMPLATES.clear()
    clear_pip_tables()


#: Per-device-spec translation templates for pad-free tile classes.
_TILE_PIP_TEMPLATES: Dict[object, Dict[object,
                                       Tuple[int, int, List[Pip]]]] = {}


def _tile_pip_class(device: Device, x: int, y: int) -> Optional[object]:
    """Translation-class key of a tile, or None when not translatable.

    Every connectivity rule (:func:`opin_wire_indices`,
    :func:`spip_out_indices`, ...) depends only on pins, directions and
    wire indices — never on coordinates — so two pad-free tiles with the
    same outgoing directions and the same *relative* arriving-wire set
    enumerate identical PIP lists up to an (x, y) translation.  Tiles
    with pads embed pad indices inside their PIPs and are computed
    directly.
    """
    if device.pads_at(x, y):
        return None
    outgoing = tuple(direction for direction in sorted(DIRECTIONS)
                     if device.wire_exists(x, y, direction))
    arriving = tuple((source[1] - x, source[2] - y, source[3], source[4])
                     for source in incoming_wires(device, x, y))
    return (outgoing, arriving)


def _translate_pips(template: List[Pip], dx: int, dy: int) -> List[Pip]:
    """Shift every node of a pad-free tile's PIP list by ``(dx, dy)``.

    Inlined tuple rebuilds: this runs for every interior tile of the
    array, and per-node helper calls measurably dominate it.
    """
    result: List[Pip] = []
    append = result.append
    for source, destination in template:
        if source[0] == "wire":
            source = (source[0], source[1] + dx, source[2] + dy,
                      source[3], source[4])
        else:
            source = (source[0], source[1] + dx, source[2] + dy, source[3])
        if destination[0] == "wire":
            destination = (destination[0], destination[1] + dx,
                           destination[2] + dy, destination[3],
                           destination[4])
        else:
            destination = (destination[0], destination[1] + dx,
                           destination[2] + dy, destination[3])
        append((source, destination))
    return result


def pips_into_tile(device: Device, x: int, y: int) -> List[Pip]:
    """All PIPs whose configuration bit lives in tile ``(x, y)``.

    A PIP's bit is stored with its *destination* resource: the wires owned by
    the tile, the tile's slice input pins and the tile's output pads.  The
    returned order is deterministic and is the canonical order used by the
    configuration-memory layout.

    Pad-free tiles of the same translation class (see
    :func:`_tile_pip_class`) share one enumerated template, translated to
    the requested coordinates — almost every tile of the array is an
    interior tile of a single class, so callers that walk many tiles
    (the seed bit accounting in :mod:`repro.pnr.reference`) pay for one
    enumeration plus cheap translations.
    """
    key = _tile_pip_class(device, x, y)
    if key is not None:
        templates = _TILE_PIP_TEMPLATES.setdefault(device.spec, {})
        entry = templates.get(key)
        if entry is not None:
            x0, y0, template = entry
            dx, dy = x - x0, y - y0
            if dx == 0 and dy == 0:
                return list(template)
            return _translate_pips(template, dx, dy)
        pips = _compute_pips_into_tile(device, x, y)
        templates[key] = (x, y, pips)
        return list(pips)
    return _compute_pips_into_tile(device, x, y)


def _compute_pips_into_tile(device: Device, x: int, y: int) -> List[Pip]:
    pips: List[Pip] = []
    width = device.spec.wires_per_direction

    # 1. PIPs driving the wires owned by this tile: from local output pins,
    #    from local pads, and from incoming wires (switch-box PIPs).
    local_sources: List[Node] = [opin(x, y, pin) for pin in SLICE_OUTPUT_PINS]
    local_sources.extend(pad_output(pad.index) for pad in device.pads_at(x, y))
    arriving = incoming_wires(device, x, y)

    for direction in sorted(DIRECTIONS):
        if not device.wire_exists(x, y, direction):
            continue
        for index in range(width):
            destination = wire(x, y, direction, index)
            for source in local_sources:
                if source[0] == "opin":
                    if index in opin_wire_indices(device, source[3]):
                        pips.append((source, destination))
                else:
                    if index in pad_wire_indices(device, source[1]):
                        pips.append((source, destination))
            for source in arriving:
                arrival_direction = source[3]
                if direction == OPPOSITE[arrival_direction]:
                    continue
                if index in spip_out_indices(device, arrival_direction,
                                             direction, source[4]):
                    pips.append((source, destination))

    # 2. PIPs driving this tile's slice input pins.
    for pin_in in SLICE_INPUT_PINS:
        destination = ipin(x, y, pin_in)
        for source in arriving:
            if ipin_accepts(device, pin_in, source[4]):
                pips.append((source, destination))
        for pin_out in SLICE_OUTPUT_PINS:
            if opin_feeds_ipin(pin_out, pin_in):
                pips.append((opin(x, y, pin_out), destination))
        for pad in device.pads_at(x, y):
            if (pad.index + _IPIN_ORDINAL[pin_in]) % 2 == 0:
                pips.append((pad_output(pad.index), destination))

    # 3. PIPs driving this tile's output pads.
    for pad in device.pads_at(x, y):
        destination = pad_input(pad.index)
        for source in arriving:
            if pad_accepts(pad.index, source[4]):
                pips.append((source, destination))
        for pin_out in SLICE_OUTPUT_PINS:
            pips.append((opin(x, y, pin_out), destination))

    return pips


def tile_pip_nodes(device: Device, x: int, y: int) -> List[Node]:
    """Every node a PIP of tile ``(x, y)`` connects, in slot order.

    The slots are the slice output pins, the tile's pads (fabric-driving
    side), the arriving wires in :func:`incoming_wires` order, the owned
    wires in sorted-direction order, the slice input pins and the tile's
    pads (fabric-reading side).  Two tiles with equal
    :func:`tile_pip_signature` have the same slots, and their
    :func:`pips_into_tile` lists agree slot for slot.
    """
    width = device.spec.wires_per_direction
    pads = device.pads_at(x, y)
    nodes: List[Node] = [opin(x, y, pin) for pin in SLICE_OUTPUT_PINS]
    nodes.extend(pad_output(pad.index) for pad in pads)
    nodes.extend(incoming_wires(device, x, y))
    for direction in sorted(DIRECTIONS):
        if device.wire_exists(x, y, direction):
            nodes.extend(wire(x, y, direction, index)
                         for index in range(width))
    nodes.extend(ipin(x, y, pin) for pin in SLICE_INPUT_PINS)
    nodes.extend(pad_input(pad.index) for pad in pads)
    return nodes


def tile_pip_signature(device: Device, x: int, y: int) -> Tuple:
    """What a tile's PIP list depends on, apart from node coordinates.

    The connectivity rules consult the owned and arriving wire
    directions, and for each pad only its wire indices, its index
    parity (the input-pin rule of :func:`_compute_pips_into_tile`) and
    :func:`pad_accepts`.  Tiles with equal signatures therefore
    enumerate the same PIPs over the slots of :func:`tile_pip_nodes`.
    """
    width = device.spec.wires_per_direction
    columns, rows = device.columns, device.rows
    outgoing = tuple(direction for direction, (dx, dy) in _SORTED_DIRECTIONS
                     if 0 <= x + dx < columns and 0 <= y + dy < rows)
    arriving = tuple(direction for direction, (dx, dy) in DIRECTIONS.items()
                     if 0 <= x - dx < columns and 0 <= y - dy < rows)
    pads = tuple((tuple(pad_wire_indices(device, pad.index)), pad.index % 2,
                  tuple(pad_accepts(pad.index, index)
                        for index in range(width)))
                 for pad in device.pads_at(x, y))
    return (outgoing, arriving, pads)


def count_tile_pips(device: Device, x: int, y: int) -> int:
    """Number of PIP bits owned by one tile (without materializing them)."""
    return len(pips_into_tile(device, x, y))


def pip_tile(device: Device, pip: Pip) -> Tuple[int, int]:
    """The tile that owns a PIP's configuration bit (its destination tile)."""
    return node_tile(device, pip[1])


def node_name(node: Node) -> str:
    """Readable name of a routing node (for reports and debugging)."""
    kind = node[0]
    if kind == "wire":
        return f"wire_x{node[1]}y{node[2]}_{node[3]}{node[4]}"
    if kind in ("opin", "ipin"):
        return f"{kind}_x{node[1]}y{node[2]}_{node[3]}"
    return f"{kind}{node[1]}"
