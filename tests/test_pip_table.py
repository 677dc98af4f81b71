"""The integer PIP table is the tuple-level PIP enumeration, renumbered.

:class:`repro.fpga.config.PipTable` stores every PIP of a device as
routing-graph node ids, one row per configuration bit.  These tests pin it
to :func:`repro.fpga.routing.pips_into_tile` (the tuple-level
specification), check the bit <-> resource round trip and the ``bit_of``
error contract, and compare the fault-list manager against a tuple-based
reference enumeration on the five smoke designs.  They use the standard
library only, so they also run without numpy.
"""

import pickle
import threading
import time
import types

import pytest

from repro.experiments import (DESIGN_ORDER, build_design_suite,
                               implement_design_suite)
from repro.faults import FaultListManager
from repro.fpga import config, routing
from repro.fpga import (LUT_BITS, LUT_SLOTS, SLICE_CFG_BITS,
                        SLICE_INPUT_PINS, device_by_name, ipin, lut_bit,
                        node_tile, pip_resource, pips_into_tile, slice_cfg)
from repro.fpga.config import (TILE_LOGIC_BITS, ConfigLayout,
                               clear_layout_cache, pip_table, shared_layout)
from repro.fpga.routing import (clear_routing_graph_cache, routing_graph,
                                tile_pip_signature)
from repro.pnr import FlowArtifactStore


@pytest.fixture(scope="module", autouse=True)
def _release_tables():
    """Drop the large-device graphs and tables after this module."""
    yield
    clear_routing_graph_cache()
    clear_layout_cache()


def _table_rows(device, layout, table, x, y):
    """The table's rows of one tile, decoded back to node tuples."""
    nodes = table.graph.nodes
    base = layout.tile_base(x, y) + TILE_LOGIC_BITS
    end = layout.tile_base(x, y) + layout.tile_bits(x, y)
    return [(nodes[table.source[bit]], nodes[table.dest[bit]])
            for bit in range(base, end)]


def _one_tile_per_class(device):
    classes = {}
    for tile in device.tiles():
        classes.setdefault(tile_pip_signature(device, *tile), tile)
    return list(classes.values())


class TestTableRows:
    @pytest.mark.parametrize("profile", ["XC2S15E", "XC2S50E"])
    def test_rows_equal_pips_into_tile_on_every_tile(self, profile):
        device = device_by_name(profile)
        layout = shared_layout(device)
        table = pip_table(device)
        assert len(table.source) == len(table.dest) == layout.total_bits
        for (x, y) in device.tiles():
            assert _table_rows(device, layout, table, x, y) == \
                pips_into_tile(device, x, y), (x, y)

    def test_rows_equal_pips_into_tile_on_large_device(self):
        # Every tile class (first and last tile of each) and every pad
        # tile of the largest profile.
        device = device_by_name("XC2S600E")
        layout = shared_layout(device)
        table = pip_table(device)
        assert len(table.source) == layout.total_bits
        by_class = {}
        for tile in device.tiles():
            by_class.setdefault(tile_pip_signature(device, *tile),
                                []).append(tile)
        tiles = {members[0] for members in by_class.values()}
        tiles |= {members[-1] for members in by_class.values()}
        tiles |= {(pad.x, pad.y) for pad in device.pads}
        for (x, y) in sorted(tiles):
            assert _table_rows(device, layout, table, x, y) == \
                pips_into_tile(device, x, y), (x, y)

    def test_logic_rows_are_empty(self):
        device = device_by_name("XC2S15E")
        layout = shared_layout(device)
        table = pip_table(device)
        for (x, y) in device.tiles():
            base = layout.tile_base(x, y)
            assert set(table.source[base:base + TILE_LOGIC_BITS]) == {-1}
            assert set(table.dest[base:base + TILE_LOGIC_BITS]) == {-1}

    @pytest.mark.parametrize("profile", ["XC2S15E", "XC2S50E"])
    def test_destination_ranges_cover_exactly_its_rows(self, profile):
        device = device_by_name(profile)
        table = pip_table(device)
        rows_into = {}
        for bit, dest in enumerate(table.dest):
            if dest >= 0:
                rows_into.setdefault(dest, []).append(bit)
        for node_id in range(len(table.graph)):
            assert list(table.bits_into(node_id)) == \
                rows_into.get(node_id, []), table.graph.nodes[node_id]

    def test_bits_into_node_counts_its_candidate_pips(self):
        device = device_by_name("XC2S15E")
        layout = shared_layout(device)
        for node in (("wire", 3, 4, "N", 2), ("ipin", 0, 0, "F1"),
                     ("pad_i", 5)):
            tile = node_tile(device, node)
            expected = [pip for pip in pips_into_tile(device, *tile)
                        if pip[1] == node]
            bits = layout.pip_bits_into(node)
            assert len(bits) == len(expected) > 0
            assert [layout.resource_of(bit) for bit in bits] == \
                [pip_resource(pip) for pip in expected]
        assert len(layout.pip_bits_into(("opin", 1, 1, "X"))) == 0


class TestRoundTrip:
    def test_every_bit_of_one_tile_per_class(self):
        device = device_by_name("XC2S50E")
        layout = shared_layout(device)
        for (x, y) in _one_tile_per_class(device):
            base = layout.tile_base(x, y)
            for bit in range(base, base + layout.tile_bits(x, y)):
                resource = layout.resource_of(bit)
                assert layout.bit_of(resource) == bit, resource
                if resource[0] == "pip":
                    assert node_tile(device, resource[2]) == (x, y)
                else:
                    assert resource[1:3] == (x, y)

    def test_fresh_layout_matches_shared_layout(self):
        device = device_by_name("XC2S15E")
        fresh = ConfigLayout(device)
        shared = shared_layout(device)
        for bit in range(0, fresh.total_bits, 97):
            assert fresh.resource_of(bit) == shared.resource_of(bit)


class TestBitOfErrors:
    @pytest.fixture(scope="class")
    def layout(self):
        return shared_layout(device_by_name("XC2S15E"))

    @pytest.mark.parametrize("resource", [
        slice_cfg(1, 1, "FFZ_INIT"),
        slice_cfg(99, 1, "FFX_INIT"),
        lut_bit(1, -1, "F", 0),
        lut_bit(1, 1, "H", 0),
        lut_bit(1, 1, "F", LUT_BITS),
        pip_resource((("opin", 1, 1, "X"), ("wire", 7, 7, "E", 0))),
        pip_resource((("opin", 1, 1, "X"), ("wire", 99, 1, "E", 0))),
        pip_resource((("ipin", 1, 1, "F1"), ("wire", 1, 1, "E", 0))),
        ("frame", 1, 1),
    ], ids=["slice-cfg-name", "slice-cfg-tile", "lut-tile", "lut-slot",
            "lut-bit", "pip-unconnected", "pip-off-device", "pip-from-sink",
            "kind"])
    def test_bad_resource_raises_key_error_naming_it(self, layout, resource):
        with pytest.raises(KeyError) as raised:
            layout.bit_of(resource)
        assert repr(resource) in str(raised.value)

    def test_unknown_node_raises_key_error_naming_it(self, layout):
        node = ("wire", 99, 1, "E", 0)
        with pytest.raises(KeyError) as raised:
            layout.pip_bits_into(node)
        assert repr(node) in str(raised.value)


class TestCacheLifetime:
    def test_clear_hooks_drop_the_table(self, small_device):
        table = pip_table(small_device)
        assert pip_table(small_device) is table
        assert table.graph is routing_graph(small_device)

        clear_layout_cache()
        rebuilt = pip_table(small_device)
        assert rebuilt is not table

        clear_routing_graph_cache()
        after_graph_clear = pip_table(small_device)
        assert after_graph_clear is not rebuilt
        assert after_graph_clear.graph is routing_graph(small_device)
        assert after_graph_clear.source == table.source


class TestConcurrentMemos:
    """Two threads asking for one device's table or graph build it once."""

    @pytest.mark.parametrize("module, memo, builder, get", [
        (config, "_PIP_TABLES", "PipTable", config.pip_table),
        (routing, "_GRAPH_CACHE", "RoutingGraph", routing.routing_graph),
    ], ids=["pip_table", "routing_graph"])
    def test_concurrent_calls_build_once(self, monkeypatch, module, memo,
                                         builder, get):
        builds = []

        def slow_build(device):
            builds.append(device)
            time.sleep(0.2)
            return object()

        monkeypatch.setattr(module, memo, {})
        monkeypatch.setattr(module, builder, slow_build)
        device = types.SimpleNamespace(spec=object())
        start = threading.Barrier(2)
        results = []

        def worker():
            start.wait(timeout=30)
            results.append(get(device))

        threads = [threading.Thread(target=worker) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert not any(thread.is_alive() for thread in threads)
        assert builds == [device]
        assert len(results) == 2 and results[0] is results[1]


class TestPickle:
    def test_artifact_carries_no_table(self, tiny_fir_implementation,
                                       tmp_path):
        implementation = tiny_fir_implementation
        store = FlowArtifactStore(tmp_path)
        clear_layout_cache()
        assert store.store("key", implementation)
        cold = store.path_of("key").read_bytes()
        layout = implementation.layout
        layout.resource_of(layout.total_bits - 1)
        assert store.store("key", implementation)
        warm = store.path_of("key").read_bytes()
        assert warm == cold
        assert b"PipTable" not in warm
        assert b"_array_reconstructor" not in warm
        # The layout pickles to its tile bases: a few bytes per tile.
        state = pickle.dumps(layout)
        device = pickle.dumps(layout.device)
        assert len(state) - len(device) < \
            24 * implementation.device.spec.num_tiles

    def test_loaded_artifact_decodes_through_shared_layout(
            self, tiny_fir_implementation, tmp_path):
        implementation = tiny_fir_implementation
        layout = implementation.layout
        bits = list(range(0, layout.total_bits, 211))
        expected = [layout.resource_of(bit) for bit in bits]
        store = FlowArtifactStore(tmp_path)
        assert store.store("key", implementation)
        clear_layout_cache()
        loaded = store.load("key", implementation.design)
        assert loaded is not None
        assert loaded.layout is shared_layout(loaded.device)
        assert loaded.bitstream.layout is loaded.layout
        assert [loaded.layout.resource_of(bit) for bit in bits] == expected
        assert loaded.bitstream.programmed_bits() == \
            implementation.bitstream.programmed_bits()


# ----------------------------------------------------------------------
# Fault lists against a tuple-based reference enumeration
# ----------------------------------------------------------------------
class _TupleBits:
    """Bit addresses from :func:`pips_into_tile` and the tile bases only."""

    def __init__(self, implementation):
        self.device = implementation.device
        self.layout = implementation.layout
        self._pips = {}

    def tile_pips(self, tile):
        if tile not in self._pips:
            self._pips[tile] = pips_into_tile(self.device, *tile)
        return self._pips[tile]

    def pip_base(self, tile):
        return self.layout.tile_base(*tile) + TILE_LOGIC_BITS

    def into(self, node):
        tile = node_tile(self.device, node)
        base = self.pip_base(tile)
        return [base + row for row, pip in enumerate(self.tile_pips(tile))
                if pip[1] == node]

    def pip(self, pip):
        tile = node_tile(self.device, pip[1])
        return self.pip_base(tile) + self.tile_pips(tile).index(pip)

    def lut(self, x, y, slot, bit):
        return self.layout.tile_base(x, y) + LUT_SLOTS.index(slot) * \
            LUT_BITS + bit

    def cfg(self, x, y, name):
        return self.layout.tile_base(x, y) + 2 * LUT_BITS + \
            SLICE_CFG_BITS.index(name)


def _reference_fault_list(implementation, mode):
    resources = implementation.resources
    address = _TupleBits(implementation)
    if mode == "programmed":
        bits = set()
        for site in resources.lut_sites:
            bits.update(address.lut(site.x, site.y, site.slot, bit)
                        for bit in range(LUT_BITS) if (site.init >> bit) & 1)
        for site in resources.ff_sites:
            suffix = "X" if site.slot == "FFX" else "Y"
            for name, programmed in ((f"FF{suffix}_INIT", site.init_value),
                                     (f"FF{suffix}_DMUX", site.data_from_lut),
                                     (f"FF{suffix}_CEMUX",
                                      site.uses_clock_enable)):
                if programmed:
                    bits.add(address.cfg(site.x, site.y, name))
        bits.update(address.pip(pip) for pip in resources.used_pips)
        return sorted(bits)

    bits = []
    for site in resources.lut_sites:
        bits.extend(address.lut(site.x, site.y, site.slot, bit)
                    for bit in range(LUT_BITS))
    for site in resources.ff_sites:
        suffix = "X" if site.slot == "FFX" else "Y"
        bits.extend(address.cfg(site.x, site.y, f"FF{suffix}_{name}")
                    for name in ("INIT", "DMUX", "CEMUX", "SRMODE"))
    slices = []
    for tile in resources.used_slices:
        if tile not in slices:
            slices.append(tile)
            bits.append(address.cfg(*tile, "CLKINV"))
    for node in resources.used_nodes:
        if node[0] in ("wire", "ipin", "pad_i"):
            bits.extend(address.into(node))
    if mode == "extended":
        seen = set(node for node in resources.used_nodes if node[0] == "ipin")
        for (x, y) in resources.used_slices:
            for pin in SLICE_INPUT_PINS:
                node = ipin(x, y, pin)
                if node not in seen:
                    seen.add(node)
                    bits.extend(address.into(node))
    return bits


@pytest.fixture(scope="module")
def smoke_implementations():
    suite = build_design_suite("smoke")
    return implement_design_suite(suite)


@pytest.mark.parametrize("mode", ["design", "extended", "programmed"])
@pytest.mark.parametrize("name", DESIGN_ORDER)
def test_fault_list_matches_tuple_reference(smoke_implementations, name,
                                            mode):
    implementation = smoke_implementations[name]
    built = FaultListManager(implementation).build(mode)
    assert built.bits == _reference_fault_list(implementation, mode)
    assert sum(built.composition.values()) == len(built.bits)
