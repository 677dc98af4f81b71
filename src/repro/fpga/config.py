"""Configuration-memory model: bit addressing, frames and decode database.

Every programmable resource of the device owns one or more configuration
bits.  The layout assigns each tile a contiguous bit region containing, in
order: the two LUT truth tables (16 bits each), the slice customization bits
and one bit per PIP owned by the tile.  Global bit addresses are grouped into
fixed-size *frames* purely for reporting, mirroring the frame-organized
configuration memory of the Spartan-IIE (2,501 frames of 576 bits on the
XC2S200E).

The :class:`ConfigLayout` is bidirectional — ``bit_of(resource)`` and
``resource_of(bit)`` — which is exactly the "database of the programmed
resources obtained by decoding the Xilinx bitstream" that the paper's fault
list manager relies on; here we own the format, so the database is computed
rather than reverse-engineered.  Its routing half is one integer
:class:`PipTable` per device profile, in the node numbering of the router's
:class:`~repro.fpga.routing.RoutingGraph`: one row of (source, destination)
node ids per configuration bit, the shape of the logic-location rows a
Xilinx ``.ll`` file lists.
"""

from __future__ import annotations

import bisect
import dataclasses
import struct
import threading
from array import array
from operator import itemgetter
from typing import Dict, Iterable, List, Optional, Tuple

from .device import LUT_SLOTS, Device, DeviceSpec
from .routing import (Node, Pip, count_tile_pips, pips_into_tile, routing_graph,
                      tile_pip_nodes, tile_pip_signature)

#: Truth-table bits per LUT.
LUT_BITS = 16
#: Slice customization bits, in layout order.  INIT bits give the flip-flop
#: power-up value ("Initialization" upsets in Table 4); the others control
#: intra-CLB multiplexers ("MUX" upsets).
SLICE_CFG_BITS = (
    "FFX_INIT", "FFY_INIT",        # flip-flop power-up / reset value
    "FFX_DMUX", "FFY_DMUX",        # FF data from paired LUT vs BX/BY bypass
    "FFX_CEMUX", "FFY_CEMUX",      # clock-enable used vs tied active
    "FFX_SRMODE", "FFY_SRMODE",    # sync reset vs set behaviour
    "CLKINV",                      # clock polarity for the slice
)
#: Logic (non-routing) bits per tile.
TILE_LOGIC_BITS = 2 * LUT_BITS + len(SLICE_CFG_BITS)

#: Resource kinds appearing in the decode database.
KIND_LUT_BIT = "lut_bit"
KIND_SLICE_CFG = "slice_cfg"
KIND_PIP = "pip"

Resource = Tuple


def lut_bit(x: int, y: int, slot: str, bit: int) -> Resource:
    return (KIND_LUT_BIT, x, y, slot, bit)


def slice_cfg(x: int, y: int, name: str) -> Resource:
    return (KIND_SLICE_CFG, x, y, name)


def pip_resource(pip: Pip) -> Resource:
    return (KIND_PIP, pip[0], pip[1])


class ConfigLayout:
    """Deterministic mapping between configuration bits and resources.

    The layout itself holds only the tile bases; PIP bits are resolved
    through the device's shared :class:`PipTable`, which is never
    pickled with an implementation.
    """

    def __init__(self, device: Device) -> None:
        self.device = device
        self._tile_index: Dict[Tuple[int, int], int] = {}
        self._tile_order: List[Tuple[int, int]] = []
        #: first bit of every tile, in tile order, then ``total_bits``
        self._tile_starts: List[int] = []
        self.total_bits = self._assign_tiles()

    # ------------------------------------------------------------------
    def _assign_tiles(self) -> int:
        pip_counts: Dict[Tuple, int] = {}
        offset = 0
        for tile in self.device.tiles():
            key = tile_pip_signature(self.device, *tile)
            if key not in pip_counts:
                pip_counts[key] = count_tile_pips(self.device, *tile)
            self._tile_index[tile] = len(self._tile_order)
            self._tile_order.append(tile)
            self._tile_starts.append(offset)
            offset += TILE_LOGIC_BITS + pip_counts[key]
        self._tile_starts.append(offset)
        return offset

    def _index_of_tile(self, x: int, y: int, resource: object) -> int:
        index = self._tile_index.get((x, y))
        if index is None:
            raise KeyError(f"{resource!r}: tile ({x}, {y}) is not on "
                           f"{self.device.spec.name}")
        return index

    # ------------------------------------------------------------------
    @property
    def frame_bits(self) -> int:
        return self.device.spec.frame_bits

    @property
    def num_frames(self) -> int:
        return (self.total_bits + self.frame_bits - 1) // self.frame_bits

    def frame_of(self, bit: int) -> int:
        return bit // self.frame_bits

    def tile_bits(self, x: int, y: int) -> int:
        index = self._index_of_tile(x, y, (x, y))
        return self._tile_starts[index + 1] - self._tile_starts[index]

    def tile_base(self, x: int, y: int) -> int:
        return self._tile_starts[self._index_of_tile(x, y, (x, y))]

    # ------------------------------------------------------------------
    def pip_bits_into(self, node: Node) -> range:
        """Bit addresses of every candidate PIP driving routing *node*.

        The PIPs into a node are contiguous rows of its tile, so this is
        one range; its length is the node's fan-in, the quantity the
        Table 2 bit accounting sums per used destination.
        """
        table = pip_table(self.device)
        node_id = table.graph.node_id.get(node)
        if node_id is None:
            raise KeyError(f"routing node {node!r} is not on "
                           f"{self.device.spec.name}")
        return table.bits_into(node_id)

    # ------------------------------------------------------------------
    def bit_of(self, resource: Resource) -> int:
        """Global bit address of a resource.

        Raises :class:`KeyError`, naming the resource, for anything the
        device does not have.
        """
        kind = resource[0]
        if kind == KIND_LUT_BIT:
            _, x, y, slot, bit = resource
            if slot not in LUT_SLOTS:
                raise KeyError(f"{resource!r}: unknown LUT slot {slot!r}")
            if not 0 <= bit < LUT_BITS:
                raise KeyError(f"{resource!r}: LUT bit {bit} out of range")
            return self._tile_starts[self._index_of_tile(x, y, resource)] \
                + LUT_SLOTS.index(slot) * LUT_BITS + bit
        if kind == KIND_SLICE_CFG:
            _, x, y, name = resource
            if name not in SLICE_CFG_BITS:
                raise KeyError(f"{resource!r}: unknown slice configuration "
                               f"bit {name!r}")
            return self._tile_starts[self._index_of_tile(x, y, resource)] \
                + 2 * LUT_BITS + SLICE_CFG_BITS.index(name)
        if kind == KIND_PIP:
            table = pip_table(self.device)
            node_id = table.graph.node_id
            source = node_id.get(resource[1])
            dest = node_id.get(resource[2])
            bit = -1 if source is None or dest is None \
                else table.bit_of(source, dest)
            if bit < 0:
                raise KeyError(f"{resource!r}: no such PIP on "
                               f"{self.device.spec.name}")
            return bit
        raise KeyError(f"{resource!r}: unknown resource kind {kind!r}")

    def resource_of(self, bit: int) -> Resource:
        """Inverse mapping: which resource a bit address controls."""
        return self.resources_of((bit,))[0]

    def resources_of(self, bits: Iterable[int]) -> List[Resource]:
        """:meth:`resource_of` for many bits, sharing one table lookup."""
        starts = self._tile_starts
        order = self._tile_order
        table: Optional[PipTable] = None
        decoded: List[Resource] = []
        append = decoded.append
        for bit in bits:
            if not 0 <= bit < self.total_bits:
                raise IndexError(f"bit {bit} outside configuration memory "
                                 f"(0..{self.total_bits - 1})")
            index = bisect.bisect_right(starts, bit) - 1
            offset = bit - starts[index]
            if offset >= TILE_LOGIC_BITS:
                if table is None:
                    table = pip_table(self.device)
                    nodes = table.graph.nodes
                append((KIND_PIP, nodes[table.source[bit]],
                        nodes[table.dest[bit]]))
            elif offset < 2 * LUT_BITS:
                x, y = order[index]
                append(lut_bit(x, y, LUT_SLOTS[offset // LUT_BITS],
                               offset % LUT_BITS))
            else:
                x, y = order[index]
                append(slice_cfg(x, y, SLICE_CFG_BITS[offset - 2 * LUT_BITS]))
        return decoded

    def routing_bit_count(self) -> int:
        """Total number of PIP bits in the device."""
        return self.total_bits - TILE_LOGIC_BITS * self.device.spec.num_tiles


class PipTable:
    """Every PIP of a device as integer rows, indexed by bit address.

    ``source[bit]`` and ``dest[bit]`` are the
    :class:`~repro.fpga.routing.RoutingGraph` node ids of the PIP that
    configuration bit *bit* controls, or -1 at a tile's logic bits.  A
    tile's rows follow the canonical :func:`pips_into_tile` order, so a
    PIP's bit is its tile base plus :data:`TILE_LOGIC_BITS` plus its row
    index.  The PIPs into one destination node are contiguous rows of
    its tile; ``first_bit[node]`` and ``fanin[node]`` give that range
    (fan-in 0 for a node no PIP drives).

    Rows are filled a tile class at a time: the class representative's
    :func:`pips_into_tile` list becomes a template over the slots of
    :func:`tile_pip_nodes`, and every tile of the class gathers its rows
    from its own slot ids.
    """

    def __init__(self, device: Device) -> None:
        graph = routing_graph(device)
        self.graph = graph
        self.first_bit = first_bit = array("i", [0]) * len(graph)
        self.fanin = fanin = array("i", [0]) * len(graph)
        tiles = list(device.tiles())
        keys = [tile_pip_signature(device, x, y) for x, y in tiles]
        templates: Dict[Tuple, _TileTemplate] = {}
        for (x, y), key in zip(tiles, keys):
            if key not in templates:
                templates[key] = _TileTemplate(tile_pip_nodes(device, x, y),
                                               pips_into_tile(device, x, y))
        total = sum(TILE_LOGIC_BITS + templates[key].size for key in keys)
        self.source = array("i", [-1]) * total
        self.dest = array("i", [-1]) * total
        # Rows are written as machine-int bytes: joining the slots' byte
        # strings into the preallocated rows skips an int conversion
        # per PIP.
        pack_int = struct.Struct("i").pack
        size = self.source.itemsize
        source_bytes = memoryview(self.source).cast("B")
        dest_bytes = memoryview(self.dest).cast("B")
        pip_base = 0
        for (x, y), key in zip(tiles, keys):
            template = templates[key]
            ids = graph.tile_slot_ids(x, y)
            slots = list(map(pack_int, ids))
            pip_base += TILE_LOGIC_BITS
            dest_rows: List[bytes] = []
            for slot, first, count in template.runs:
                node = ids[slot]
                first_bit[node] = pip_base + first
                fanin[node] = count
                dest_rows.append(slots[slot] * count)
            start = pip_base * size
            end = start + template.size * size
            source_bytes[start:end] = b"".join(template.sources(slots))
            dest_bytes[start:end] = b"".join(dest_rows)
            pip_base += template.size
        source_bytes.release()
        dest_bytes.release()

    def bits_into(self, node: int) -> range:
        """Bit addresses of every PIP into node id *node*."""
        first = self.first_bit[node]
        return range(first, first + self.fanin[node])

    def bit_of(self, source: int, dest: int) -> int:
        """Bit address of the PIP ``source -> dest`` (node ids), or -1."""
        first = self.first_bit[dest]
        row = self.source[first:first + self.fanin[dest]]
        return first + row.index(source) if source in row else -1


class _TileTemplate:
    """One tile class's PIP rows as slots of :func:`tile_pip_nodes`."""

    def __init__(self, nodes: List[Node], pips: List[Pip]) -> None:
        slot_of = {node: slot for slot, node in enumerate(nodes)}
        self.sources = itemgetter(*[slot_of[source] for source, _ in pips])
        self.size = len(pips)
        #: (destination slot, first row, fan-in) per destination node
        self.runs: List[Tuple[int, int, int]] = []
        for row, (_source, dest) in enumerate(pips):
            slot = slot_of[dest]
            if self.runs and self.runs[-1][0] == slot:
                _slot, first, count = self.runs[-1]
                self.runs[-1] = (slot, first, count + 1)
            else:
                self.runs.append((slot, row, 1))
        if len({slot for slot, _first, _count in self.runs}) != \
                len(self.runs):
            raise ValueError("the PIPs into a node must be contiguous rows "
                             "of their tile")


#: ConfigLayout and PipTable per DeviceSpec.  Both are pure functions of
#: the device geometry, so one instance serves every design implemented
#: on that profile.
_LAYOUT_CACHE: Dict[DeviceSpec, ConfigLayout] = {}
_PIP_TABLES: Dict[DeviceSpec, PipTable] = {}
#: Held across the PIP-table memo check and the build.  A table build
#: takes the routing-graph lock inside this one (never the reverse), so
#: the lock order is table, then graph.
_PIP_TABLES_LOCK = threading.Lock()


def shared_layout(device: Device) -> ConfigLayout:
    """The memoized configuration layout of a device profile."""
    layout = _LAYOUT_CACHE.get(device.spec)
    if layout is None:
        layout = ConfigLayout(device)
        _LAYOUT_CACHE[device.spec] = layout
    return layout


def pip_table(device: Device) -> PipTable:
    """The memoized PIP table of a device profile."""
    with _PIP_TABLES_LOCK:
        table = _PIP_TABLES.get(device.spec)
        if table is None:
            table = PipTable(device)
            _PIP_TABLES[device.spec] = table
    return table


def clear_pip_tables() -> None:
    """Drop memoized PIP tables (they follow the routing graphs)."""
    _PIP_TABLES.clear()


def clear_layout_cache() -> None:
    """Drop memoized layouts and PIP tables (used by cold-start benchmarks)."""
    _LAYOUT_CACHE.clear()
    _PIP_TABLES.clear()


@dataclasses.dataclass
class BitstreamStats:
    """Composition of a bitstream's programmed (or design-related) bits."""

    routing_bits: int = 0
    lut_bits: int = 0
    ff_bits: int = 0

    @property
    def total(self) -> int:
        return self.routing_bits + self.lut_bits + self.ff_bits

    def routing_fraction(self) -> float:
        return self.routing_bits / self.total if self.total else 0.0


class ConfigMemory:
    """The configuration memory contents (one byte per bit for simplicity)."""

    def __init__(self, layout: ConfigLayout) -> None:
        self.layout = layout
        self.bits = bytearray(layout.total_bits)

    def set_bit(self, bit: int, value: int = 1) -> None:
        self.bits[bit] = 1 if value else 0

    def get_bit(self, bit: int) -> int:
        return self.bits[bit]

    def flip_bit(self, bit: int) -> int:
        """Flip one bit (the SEU model) and return the new value."""
        self.bits[bit] ^= 1
        return self.bits[bit]

    def set_resource(self, resource: Resource, value: int = 1) -> None:
        self.set_bit(self.layout.bit_of(resource), value)

    def get_resource(self, resource: Resource) -> int:
        return self.get_bit(self.layout.bit_of(resource))

    def programmed_bits(self) -> List[int]:
        """Addresses of all bits currently set to one."""
        return [index for index, value in enumerate(self.bits) if value]

    def count_programmed(self) -> int:
        return sum(self.bits)

    def copy(self) -> "ConfigMemory":
        duplicate = ConfigMemory(self.layout)
        duplicate.bits = bytearray(self.bits)
        return duplicate

    def frame_view(self, frame: int) -> bytes:
        start = frame * self.layout.frame_bits
        end = min(start + self.layout.frame_bits, self.layout.total_bits)
        return bytes(self.bits[start:end])

    def difference(self, other: "ConfigMemory") -> List[int]:
        """Bit addresses at which two configuration memories differ."""
        return [index for index, (a, b) in enumerate(zip(self.bits,
                                                         other.bits))
                if a != b]
