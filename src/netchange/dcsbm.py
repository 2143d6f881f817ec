"""Degree-corrected block-model sampling and change-scenario sequences.

Edge weights between distinct vertices are independent Poisson draws with
mean theta_i * theta_j * psi(block_i, block_j), where psi scales the block
probability matrix B by the block sizes and the theta vector carries
per-vertex degree propensities (drawn from the catalog power law, or equal
in the model's constant-theta blocks, normalized to sum to one inside each
block).  A model is its block sizes g, its k x k block probability matrix
B and its constant-theta blocks; every catalog model mixes its planted
matrix P with a uniform background, B = 0.8 P + 0.2 * 0.0025.  A scenario
pairs a baseline model with a changed model, the `range` of changed
instants (one instant for a point change) and the changed vertex set; that
scenario is the ground truth of every snapshot sequence sampled from it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidProbability, checked_int
from .graph import MAX_VERTICES, SnapshotMatrix

# shared catalog constants: block-size vector is per model, everything else fixed
CATALOG_LAMBDA = 0.8
CATALOG_NU = 0.0025
CATALOG_ALPHA = 0.01
CATALOG_BETA = 0.02
CATALOG_GAMMA = 0.03
CATALOG_THETA_MIN = 1.0
CATALOG_THETA_SHAPE = 2.5

DEFAULT_T = 30
DEFAULT_CHANGE_INSTANT = 21
DEFAULT_INTERVAL = range(21, 31)


@dataclass(frozen=True)
class DcsbmModel:
    """Full generative parameter set for one block model.

    Attributes:
        g: block sizes; vertices are assigned contiguously (block 0 first).
        B: k x k symmetric block probability matrix, every entry in [0, 1].
        constant_theta: blocks whose degree propensities are equal; every
            other block draws the catalog power law.
        name: optional catalog label.
    """

    g: tuple[int, ...]
    B: np.ndarray
    constant_theta: tuple[int, ...]
    name: str = ""

    def __post_init__(self):
        g = tuple(checked_int("block size", x, least=1) for x in self.g)
        B = np.array(self.B, dtype=float)
        B.flags.writeable = False
        k = len(g)
        if B.shape != (k, k):
            raise ValueError(f"block matrix must be {k}x{k}, got {B.shape}")
        if not ((B >= 0.0) & (B <= 1.0)).all():  # NaN fails both comparisons
            raise InvalidProbability("block matrix entries must lie in [0, 1]")
        if not np.array_equal(B, B.T):
            raise ValueError("block matrix must be symmetric")
        constant = tuple(int(b) for b in self.constant_theta)
        if any(not 0 <= b < k for b in constant):
            raise ValueError(f"constant-theta blocks must lie in 0..{k - 1}, got {constant}")
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "B", B)
        object.__setattr__(self, "constant_theta", constant)

    @property
    def n(self) -> int:
        return int(sum(self.g))

    @property
    def k(self) -> int:
        return len(self.g)

    @property
    def memberships(self) -> np.ndarray:
        return np.repeat(np.arange(self.k), self.g)


def sample_power_law(size: int, rng: np.random.Generator) -> np.ndarray:
    """Raw catalog power-law draws by inverse CDF: theta = theta_min (1-U)^(-1/(shape-1))."""
    u = rng.random(size)
    return CATALOG_THETA_MIN * (1.0 - u) ** (-1.0 / (CATALOG_THETA_SHAPE - 1.0))


def sample_theta(model: DcsbmModel, rng: np.random.Generator) -> np.ndarray:
    """Draw degree propensities and normalize them to sum to one per block."""
    theta = np.empty(model.n)
    start = 0
    for b, size in enumerate(model.g):
        stop = start + size
        if b in model.constant_theta:
            theta[start:stop] = 1.0 / size
        else:
            draws = sample_power_law(size, rng)
            theta[start:stop] = draws / draws.sum()
        start = stop
    return theta


def psi(model: DcsbmModel) -> np.ndarray:
    """Expected edge counts between blocks: B scaled by both block sizes."""
    g = np.asarray(model.g, dtype=float)
    return model.B * np.outer(g, g)


def sample_snapshot(
    model: DcsbmModel, theta: np.ndarray, rng: np.random.Generator, t: int = 1
) -> SnapshotMatrix:
    """One symmetric Poisson-weighted adjacency draw; diagonal forced to zero."""
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (model.n,):
        raise ValueError(f"theta must have length {model.n}")
    if not (np.isfinite(theta).all() and (theta >= 0).all()):
        raise ValueError("theta must be finite and nonnegative")
    pairs = np.triu_indices(model.n, k=1)
    return _draw(theta, pairs, _pair_psi(model, pairs), rng, t)


def _pair_psi(model: DcsbmModel, pairs: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """psi(b_i, b_j) of each row-major pair i < j."""
    c = model.memberships
    return psi(model)[c[pairs[0]], c[pairs[1]]]


def _draw(
    theta: np.ndarray,
    pairs: tuple[np.ndarray, np.ndarray],
    pair_psi: np.ndarray,
    rng: np.random.Generator,
    t: int,
) -> SnapshotMatrix:
    """One Poisson draw per pair; only the nonzero draws become edges.

    theta_i * theta_j is formed first and then scaled by psi, the order of
    `np.outer(theta, theta) * psi(model)[np.ix_(c, c)]`, so every mean (and
    with it every draw of a given random stream) is that of the dense form.
    """
    counts = rng.poisson(theta[pairs[0]] * theta[pairs[1]] * pair_psi)
    hit = np.flatnonzero(counts)
    return SnapshotMatrix.from_edges(
        theta.size, pairs[0][hit], pairs[1][hit], counts[hit].astype(float), t
    )


def _scaled_sizes(sizes: tuple[int, ...], scale: float | None) -> tuple[int, ...]:
    if scale is None:
        return sizes
    if not 0 < scale < np.inf:
        raise ValueError(f"scale must be positive and finite, got {scale}")
    if sum(sizes) * scale > MAX_VERTICES:
        raise ValueError(f"scale {scale} gives more than {MAX_VERTICES} vertices")
    scaled = tuple(int(round(s * scale)) for s in sizes)
    if any(s < 1 for s in scaled):
        raise ValueError(f"scale {scale} collapses a block to zero vertices")
    return scaled


_A, _B, _G = CATALOG_ALPHA, CATALOG_BETA, CATALOG_GAMMA
# model -> (block sizes, planted diagonal or full planted matrix,
# blocks with constant theta; every other block draws a power law)
_CATALOG = {
    "M1": ((300, 300, 300), (_A, _B, _G), ()),
    "M2": ((150, 150, 300, 300), (_A, _A, _B, _G), ()),
    "M3": ((300, 300, 300), (_A, _B, 0.1 * _G), ()),
    "M4": ((150, 450, 300), (_A, _B, _G), ()),
    "M5": ((300, 300, 300), (_A, _B, _G), (0,)),
    "M6": (
        (300, 300, 300),
        ((0.5 * _A, 0.5 * _A, 0.0), (0.5 * _A, _B - 0.5 * _A, 0.0), (0.0, 0.0, _G)),
        (),
    ),
}


def catalog(name: str, scale: float | None = None) -> DcsbmModel:
    """Named model from the simulation catalog (M1..M6).

    Every catalog model mixes its planted matrix with the same uniform
    background, B = CATALOG_LAMBDA * planted + (1 - CATALOG_LAMBDA) * CATALOG_NU,
    and shares the power-law theta parameters and the planted probabilities
    alpha/beta/gamma; the models differ in block count, block sizes, planted
    layout, and (for M5) a constant-theta first block.  `scale` multiplies
    every block size uniformly.
    """
    key = name.upper()
    if key not in _CATALOG:
        raise ValueError(f"unknown model {name!r}; expected M1..M6")
    sizes, planted, constant = _CATALOG[key]
    planted = np.asarray(planted, dtype=float)
    planted = np.diag(planted) if planted.ndim == 1 else planted
    return DcsbmModel(
        g=_scaled_sizes(sizes, scale),
        B=CATALOG_LAMBDA * planted + (1.0 - CATALOG_LAMBDA) * CATALOG_NU,
        constant_theta=constant,
        name=key,
    )


# scenario -> (baseline model, changed model, blocks of the baseline whose
# vertices are the changed set)
_SCENARIO_TABLE = {
    "group-change": ("M1", "M4", (0, 1)),
    "split": ("M1", "M2", (0,)),
    "merge": ("M2", "M1", (0, 1)),
    "form": ("M3", "M1", (2,)),
    "fragment": ("M1", "M3", (2,)),
    "hetero-to-homo": ("M1", "M5", (0,)),
    "homo-to-hetero": ("M5", "M1", (0,)),
    "simple-to-complex": ("M1", "M6", (0, 1)),
    "complex-to-simple": ("M6", "M1", (0, 1)),
}
SCENARIO_NAMES = tuple(_SCENARIO_TABLE)


@dataclass(frozen=True)
class ScenarioSpec:
    """A change scenario: two models, the changed instants, and the changed set.

    The spec is the ground truth of every sequence sampled from it.
    """

    name: str
    f0: DcsbmModel
    f1: DcsbmModel
    change: range
    T: int
    changed_vertices: np.ndarray

    def __post_init__(self):
        if self.f0.n != self.f1.n:
            raise ValueError("both models must share the vertex count")
        T = checked_int("T", self.T)
        change = self.change
        if not (change.step == 1 and 1 < change.start < change.stop <= T + 1):
            raise ValueError(f"change {change.start}..{change.stop - 1} invalid for T={T}")
        cv = np.asarray(self.changed_vertices)
        if cv.ndim != 1 or (cv.size and not np.issubdtype(cv.dtype, np.integer)):
            raise ValueError(f"changed vertices must be a 1-d integer index array, got {cv.dtype}")
        cv = np.sort(cv.astype(np.int64))
        if np.any(cv[1:] == cv[:-1]):
            raise ValueError("changed vertices must be distinct; an index is repeated")
        if cv.size == 0 or cv.size >= self.f0.n or cv[0] < 0 or cv[-1] >= self.f0.n:
            raise ValueError("changed vertices must be a proper nonempty subset")
        cv.flags.writeable = False
        object.__setattr__(self, "T", T)
        object.__setattr__(self, "changed_vertices", cv)

    @property
    def n(self) -> int:
        return self.f0.n

    @property
    def unchanged_vertices(self) -> np.ndarray:
        # a mask, not np.setdiff1d: that raised the n=300 evaluate peak RSS from 44.2 to 45.6 MB
        mask = np.ones(self.n, dtype=bool)
        mask[self.changed_vertices] = False
        return np.nonzero(mask)[0]


def scenario(
    name: str,
    change_type: str = "point",
    T: int = DEFAULT_T,
    scale: float | None = None,
) -> ScenarioSpec:
    """Build a catalog scenario, optionally scaled down uniformly."""
    if name not in _SCENARIO_TABLE:
        raise ValueError(f"unknown scenario {name!r}; expected one of {SCENARIO_NAMES}")
    f0_name, f1_name, changed_blocks = _SCENARIO_TABLE[name]
    f0 = catalog(f0_name, scale=scale)
    f1 = catalog(f1_name, scale=scale)
    if f0.n != f1.n:
        raise ValueError(
            f"scale {scale} rounds the paired models to different sizes "
            f"({f0.n} vs {f1.n}); choose a scale that keeps every block size integral"
        )
    c = f0.memberships
    changed = np.nonzero(np.isin(c, changed_blocks))[0]
    point = range(DEFAULT_CHANGE_INSTANT, DEFAULT_CHANGE_INSTANT + 1)
    changes = {"point": point, "interval": DEFAULT_INTERVAL}
    if change_type not in changes:
        raise ValueError(f"unknown change type {change_type!r}")
    return ScenarioSpec(
        name=name, f0=f0, f1=f1, change=changes[change_type], T=T, changed_vertices=changed
    )


def generate_sequence(spec: ScenarioSpec, rng: np.random.Generator) -> list[SnapshotMatrix]:
    """Sample the scenario's snapshot sequence.

    Degree propensities are redrawn independently at every instant, since
    consecutive snapshots are independent samples from the active model.
    The vertex-pair list is built once per sequence and each model's psi
    per pair once, not once per instant.
    """
    pairs = np.triu_indices(spec.n, k=1)
    models = (spec.f0, spec.f1)
    pair_psi = [_pair_psi(model, pairs) for model in models]
    snapshots = []
    for t in range(1, spec.T + 1):
        changed = int(t in spec.change)
        theta = sample_theta(models[changed], rng)
        snapshots.append(_draw(theta, pairs, pair_psi[changed], rng, t))
    return snapshots
