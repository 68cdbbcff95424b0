"""Unit tests: tile grid geometry and the per-tile adjacency recompute."""

import pytest

np = pytest.importorskip("numpy")

from repro.errors import ConfigurationError
from repro.shard.tiles import TileAdjacency, TileGrid


class TestTileGrid:
    def test_shard_count_factors_to_squarest_tiles(self):
        grid = TileGrid(1000.0, 1000.0, shards=4)
        assert (grid.nx, grid.ny) == (2, 2)
        assert grid.tiles == 4

    def test_six_shards_on_a_square_arena(self):
        grid = TileGrid(1000.0, 1000.0, shards=6)
        assert grid.nx * grid.ny == 6
        # squarest split of 6 on a square arena is 3x2 (or 2x3).
        assert {grid.nx, grid.ny} == {2, 3}

    def test_default_is_one_tile(self):
        grid = TileGrid(500.0, 500.0)
        assert grid.tiles == 1
        assert grid.bounds(0) == (0.0, 0.0, 500.0, 500.0)

    @pytest.mark.parametrize("kwargs", [{"shards": 0}])
    def test_bad_parameters_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            TileGrid(1000.0, 1000.0, **kwargs)

    def test_degenerate_arena_rejected(self):
        with pytest.raises(ConfigurationError):
            TileGrid(0.0, 100.0, shards=2)

    def test_owner_of_matches_vectorized_owners(self):
        grid = TileGrid(1000.0, 1000.0, shards=4)
        rng = np.random.default_rng(7)
        xs = rng.uniform(0.0, 1000.0, 64)
        ys = rng.uniform(0.0, 1000.0, 64)
        owners = grid.owners(xs, ys)
        for x, y, owner in zip(xs, ys, owners.tolist()):
            assert grid.owner_of(x, y) == owner

    def test_far_edge_positions_clip_into_the_last_tile(self):
        grid = TileGrid(1000.0, 1000.0, shards=4)
        assert grid.owner_of(1000.0, 1000.0) == grid.tiles - 1
        owners = grid.owners(np.array([1000.0]), np.array([1000.0]))
        assert owners.tolist() == [grid.tiles - 1]

    def test_bounds_partition_the_arena(self):
        grid = TileGrid(900.0, 600.0, shards=6)
        area = 0.0
        for tile in range(grid.tiles):
            x0, y0, x1, y1 = grid.bounds(tile)
            assert 0.0 <= x0 < x1 <= 900.0
            assert 0.0 <= y0 < y1 <= 600.0
            area += (x1 - x0) * (y1 - y0)
        assert area == pytest.approx(900.0 * 600.0)

    def test_unknown_tile_bounds_rejected(self):
        with pytest.raises(ConfigurationError):
            TileGrid(100.0, 100.0, shards=2).bounds(5)


def brute_out_edges(senders, ax, ay, ar):
    """The serial predicate applied directly: sender range, no loops."""
    n = len(ax)
    edges = set()
    for u in senders:
        for v in range(n):
            if v == u:
                continue
            dx = ax[v] - ax[u]
            dy = ay[v] - ay[u]
            if dx * dx + dy * dy <= ar[u] * ar[u]:
                edges.add(u * n + v)
    return edges


def make_positions(seed, n=40, extent=300.0):
    rng = np.random.default_rng(seed)
    ax = rng.uniform(0.0, extent, n)
    ay = rng.uniform(0.0, extent, n)
    ar = rng.uniform(20.0, 80.0, n)
    return ax, ay, ar


class TestTileAdjacency:
    def make_adj(self, grid, tile, rmax):
        return TileAdjacency(40, grid.bounds(tile), rmax * 1.000001 + 1e-9)

    def test_refresh_matches_brute_force(self):
        ax, ay, ar = make_positions(3)
        grid = TileGrid(300.0, 300.0, shards=4)
        own = grid.owners(ax, ay)
        rmax = float(ar.max())
        union = set()
        for tile in range(grid.tiles):
            adj = self.make_adj(grid, tile, rmax)
            owned = np.flatnonzero(own == tile)
            added, removed = adj.refresh(owned, ax, ay, ar)
            assert removed.size == 0
            expected = brute_out_edges(owned.tolist(), ax, ay, ar)
            assert set(added.tolist()) == expected
            assert set(adj.edges.tolist()) == expected
            union |= expected
        assert union == brute_out_edges(range(40), ax, ay, ar)

    def test_deltas_track_motion(self):
        ax, ay, ar = make_positions(5)
        grid = TileGrid(300.0, 300.0, shards=1)
        rmax = float(ar.max())
        adj = self.make_adj(grid, 0, rmax)
        owned = np.arange(40, dtype=np.int64)
        adj.refresh(owned, ax, ay, ar)
        before = set(adj.edges.tolist())
        rng = np.random.default_rng(9)
        ax2 = np.clip(ax + rng.uniform(-30.0, 30.0, 40), 0.0, 300.0)
        ay2 = np.clip(ay + rng.uniform(-30.0, 30.0, 40), 0.0, 300.0)
        added, removed = adj.refresh(owned, ax2, ay2, ar)
        after = brute_out_edges(range(40), ax2, ay2, ar)
        assert set(adj.edges.tolist()) == after
        assert set(added.tolist()) == after - before
        assert set(removed.tolist()) == before - after

    def test_neighbors_of_matches_edge_set(self):
        ax, ay, ar = make_positions(11)
        grid = TileGrid(300.0, 300.0, shards=1)
        adj = self.make_adj(grid, 0, float(ar.max()))
        adj.refresh(np.arange(40, dtype=np.int64), ax, ay, ar)
        expected = brute_out_edges(range(40), ax, ay, ar)
        for node in range(40):
            want = {edge % 40 for edge in expected if edge // 40 == node}
            assert adj.neighbors_of(node) == want

    def test_extract_then_absorb_is_lossless(self):
        ax, ay, ar = make_positions(13)
        grid = TileGrid(300.0, 300.0, shards=1)
        adj = self.make_adj(grid, 0, float(ar.max()))
        adj.refresh(np.arange(40, dtype=np.int64), ax, ay, ar)
        before = adj.edges.copy()
        departing = np.array([2, 17, 31], dtype=np.int64)
        rows = adj.extract_rows(departing)
        senders = set((adj.edges // 40).tolist())
        assert senders.isdisjoint({2, 17, 31})
        adj.absorb_rows(list(rows.values()))
        assert np.array_equal(adj.edges, before)
