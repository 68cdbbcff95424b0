"""Spatial tiling: ownership, halos, and per-tile adjacency recompute.

A :class:`TileGrid` cuts the arena into an ``nx x ny`` rectangle grid.
Every node is *owned* by exactly one tile — the one its current
position falls in — and ownership is re-derived from positions each
step, so a mobile node crossing a tile edge is handed over explicitly
(table, stigmergy board, resident agents, previous out-edge rows).

:class:`TileAdjacency` recomputes one tile's slice of the directed
adjacency — the out-edges of the tile's owned nodes — from scratch
every step with the serial topology's own link kernel
(:func:`repro.net.topology.link_edges`), run over the tile's *halo*:
owned nodes plus every node within the maximum radio range of the tile
rectangle.  The sharded world runs no faults, so radio ranges only
ever shrink (batteries drain) and the construction-time maximum range
is a sound halo pad for the whole run.  Edges are kept as packed
``u * n + v`` int64 arrays; per-step added/removed deltas come from the
same sorted merge the serial refresh uses (:func:`edge_delta`), which
makes the tile deltas concatenate into exactly the serial topology's
per-step edge diff.  The halo pad only chooses which nodes the kernel
sees, never the outcome.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as _np

from repro.errors import ConfigurationError
from repro.net.topology import edge_delta, link_edges

__all__ = ["TileGrid", "TileAdjacency"]


def _factor_tiles(count: int, width: float, height: float) -> Tuple[int, int]:
    """Split ``count`` tiles into the grid with the squarest tiles."""
    best: Optional[Tuple[float, int, int]] = None
    for ny in range(1, count + 1):
        if count % ny:
            continue
        nx = count // ny
        skew = abs(width / nx - height / ny)
        if best is None or skew < best[0]:
            best = (skew, nx, ny)
    assert best is not None
    return best[1], best[2]


class TileGrid:
    """The arena's rectangular tile decomposition.

    ``shards`` tiles are factored into the grid with the squarest tiles.
    Ownership is clipped floor division, so positions exactly on the far
    arena edge belong to the last tile.
    """

    def __init__(self, width: float, height: float, shards: int = 1) -> None:
        if width <= 0 or height <= 0:
            raise ConfigurationError(
                f"arena must have positive extent, got {width}x{height}"
            )
        if shards < 1:
            raise ConfigurationError(f"shards must be >= 1, got {shards}")
        nx, ny = _factor_tiles(shards, width, height)
        self.width = width
        self.height = height
        self.nx = nx
        self.ny = ny
        self.tiles = nx * ny
        self.tile_w = width / nx
        self.tile_h = height / ny

    def owners(self, xs, ys):
        """Owning tile of every position (vectorized, clipped)."""
        tx = _np.minimum((xs / self.tile_w).astype(_np.int64), self.nx - 1)
        ty = _np.minimum((ys / self.tile_h).astype(_np.int64), self.ny - 1)
        return ty * self.nx + tx

    def owner_of(self, x: float, y: float) -> int:
        """Owning tile of one position (scalar twin of :meth:`owners`)."""
        tx = min(int(x / self.tile_w), self.nx - 1)
        ty = min(int(y / self.tile_h), self.ny - 1)
        return ty * self.nx + tx

    def bounds(self, tile: int) -> Tuple[float, float, float, float]:
        """The tile's rectangle ``(x0, y0, x1, y1)``."""
        if not 0 <= tile < self.tiles:
            raise ConfigurationError(f"no tile {tile} in a {self.nx}x{self.ny} grid")
        tx = tile % self.nx
        ty = tile // self.nx
        return (
            tx * self.tile_w,
            ty * self.tile_h,
            (tx + 1) * self.tile_w,
            (ty + 1) * self.tile_h,
        )


class TileAdjacency:
    """One tile's out-edges, recomputed per step from positions.

    ``pad`` must be at least the largest radio range any node will ever
    have, so every node an owned sender can reach lies in the tile
    rectangle grown by ``pad`` (the halo).
    """

    def __init__(
        self,
        node_count: int,
        bounds: Tuple[float, float, float, float],
        pad: float,
    ) -> None:
        if pad <= 0:
            raise ConfigurationError(f"pad must be > 0, got {pad}")
        self.node_count = node_count
        self.x0, self.y0, self.x1, self.y1 = bounds
        self.pad = pad
        #: current out-edges of owned nodes, packed ``u * n + v``, sorted.
        self.edges = _np.empty(0, dtype=_np.int64)

    def refresh(self, owned, ax, ay, ar):
        """Recompute owned nodes' out-edges; return ``(added, removed)``.

        ``owned`` is the sorted id array of nodes this tile owns;
        ``ax``/``ay``/``ar`` are the global position/range arrays.  The
        deltas are packed int64 arrays relative to the edge set left by
        the previous call (after any hand-over row moves).
        """
        pad = self.pad
        halo = _np.flatnonzero(
            (ax >= self.x0 - pad)
            & (ax <= self.x1 + pad)
            & (ay >= self.y0 - pad)
            & (ay <= self.y1 + pad)
        )
        new = link_edges(ax, ay, ar, owned, halo)
        added, removed = edge_delta(new, self.edges)
        self.edges = new
        return added, removed

    def neighbors_of(self, node: int):
        """Current out-neighbour set of an owned node."""
        n = self.node_count
        base = node * n
        edges = self.edges
        lo = _np.searchsorted(edges, base, side="left")
        hi = _np.searchsorted(edges, base + n, side="left")
        return set((edges[lo:hi] - base).tolist())

    def extract_rows(self, departing) -> Dict[int, "object"]:
        """Remove and return the out-edge rows of departing nodes.

        The rows ride the hand-over so the destination tile's next
        ``refresh`` diffs against the node's true previous edges — a
        drop-and-rebuild would emit spurious remove+add pairs that the
        serial edge diff never contains.
        """
        edges = self.edges
        if edges.size == 0 or len(departing) == 0:
            return {}
        mask = _np.isin(edges // self.node_count, departing)
        taken = edges[mask]
        self.edges = edges[~mask]
        rows: Dict[int, object] = {}
        n = self.node_count
        for node in _np.asarray(departing).tolist():
            lo = _np.searchsorted(taken, node * n, side="left")
            hi = _np.searchsorted(taken, (node + 1) * n, side="left")
            if hi > lo:
                rows[node] = taken[lo:hi]
        return rows

    def absorb_rows(self, rows) -> None:
        """Adopt previous out-edge rows arriving with handed-over nodes."""
        if len(rows) == 0:
            return
        merged = _np.concatenate([self.edges] + list(rows))
        merged.sort()
        self.edges = merged
