"""Degree-corrected block-model sampling and change-scenario sequences.

Edge weights between distinct vertices are independent Poisson draws with
mean theta_i * theta_j * psi(block_i, block_j), where psi scales a block
probability matrix by the block sizes and the theta vector carries
per-vertex degree propensities (drawn from the catalog power law, or equal
in the model's constant-theta blocks, normalized to sum to one inside each
block).  A scenario pairs a baseline model with a changed model, an
interval of changed instants (one instant for a point change) and the
changed vertex set; that scenario is the ground truth of every snapshot
sequence sampled from it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidProbability
from .graph import SnapshotMatrix

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
DEFAULT_INTERVAL = (21, 30)


@dataclass(frozen=True)
class DcsbmModel:
    """Full generative parameter set for one block model.

    Attributes:
        g: block sizes; vertices are assigned contiguously (block 0 first).
        B_planted: k x k planted block probability matrix.
        nu: background (inter-block) probability of the random component.
        lam: mixing weight between planted and random components.
        constant_theta: blocks whose degree propensities are equal; every
            other block draws the catalog power law.
        name: optional catalog label.
    """

    g: tuple[int, ...]
    B_planted: np.ndarray
    nu: float
    lam: float
    constant_theta: tuple[int, ...]
    name: str = ""

    def __post_init__(self):
        g = tuple(int(x) for x in self.g)
        if any(x < 1 for x in g):
            raise ValueError("every block must contain at least one vertex")
        B = np.array(self.B_planted, dtype=float)
        B.flags.writeable = False
        k = len(g)
        if B.shape != (k, k):
            raise ValueError(f"planted matrix must be {k}x{k}, got {B.shape}")
        if not np.array_equal(B, B.T):
            raise ValueError("planted block matrix must be symmetric")
        constant = tuple(int(b) for b in self.constant_theta)
        if any(not 0 <= b < k for b in constant):
            raise ValueError(f"constant-theta blocks must lie in 0..{k - 1}, got {constant}")
        if not 0.0 <= self.nu <= 1.0 or not 0.0 <= self.lam <= 1.0:
            raise InvalidProbability("nu and lambda must lie in [0, 1]")
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "B_planted", B)
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


def block_matrix(model: DcsbmModel) -> np.ndarray:
    """Mix the planted structure with the uniform background component."""
    B = model.lam * model.B_planted + (1.0 - model.lam) * model.nu
    if np.any(B < 0.0) or np.any(B > 1.0):
        raise InvalidProbability("mixed block matrix has entries outside [0, 1]")
    return B


def psi(model: DcsbmModel) -> np.ndarray:
    """Expected edge counts between blocks: B scaled by both block sizes."""
    g = np.asarray(model.g, dtype=float)
    return block_matrix(model) * np.outer(g, g)


def sample_snapshot(
    model: DcsbmModel, theta: np.ndarray, rng: np.random.Generator, t: int = 1
) -> SnapshotMatrix:
    """One symmetric Poisson-weighted adjacency draw; diagonal forced to zero."""
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (model.n,):
        raise ValueError(f"theta must have length {model.n}")
    pairs = _upper_pairs(model.n)
    return _draw(model, theta, pairs, _pair_blocks(model, pairs), rng, t)


def _upper_pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Row-major `(rows, cols)` of every vertex pair i < j."""
    return np.triu_indices(n, k=1)


def _pair_blocks(model: DcsbmModel, pairs: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """Flat index into the k x k `psi(model)` of each pair's two blocks."""
    c = model.memberships
    return c[pairs[0]] * model.k + c[pairs[1]]


def _pair_means(
    model: DcsbmModel, theta: np.ndarray, pairs: tuple[np.ndarray, np.ndarray], blocks: np.ndarray
) -> np.ndarray:
    """Poisson mean of each pair.

    theta_i * theta_j is formed first and then scaled by psi, the order of
    `np.outer(theta, theta) * psi(model)[np.ix_(c, c)]`, so every mean (and
    with it every draw of a given random stream) is that of the dense form.
    """
    return theta[pairs[0]] * theta[pairs[1]] * psi(model).ravel()[blocks]


def _draw(
    model: DcsbmModel,
    theta: np.ndarray,
    pairs: tuple[np.ndarray, np.ndarray],
    blocks: np.ndarray,
    rng: np.random.Generator,
    t: int,
) -> SnapshotMatrix:
    """One Poisson draw per pair; only the nonzero draws become edges."""
    counts = rng.poisson(_pair_means(model, theta, pairs, blocks))
    hit = np.flatnonzero(counts)
    return SnapshotMatrix.from_edges(
        model.n, pairs[0][hit], pairs[1][hit], counts[hit].astype(float), t
    )


def _scaled_sizes(sizes: tuple[int, ...], scale: float | None) -> tuple[int, ...]:
    if scale is None:
        return sizes
    if scale <= 0:
        raise ValueError("scale must be positive")
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

    All catalog models share lambda, nu, the power-law theta parameters and
    the planted probabilities alpha/beta/gamma; they differ in block count,
    block sizes, planted layout, and (for M5) a constant-theta first block.
    `scale` multiplies every block size uniformly.
    """
    key = name.upper()
    if key not in _CATALOG:
        raise ValueError(f"unknown model {name!r}; expected M1..M6")
    sizes, planted, constant = _CATALOG[key]
    planted = np.asarray(planted, dtype=float)
    return DcsbmModel(
        g=_scaled_sizes(sizes, scale),
        B_planted=np.diag(planted) if planted.ndim == 1 else planted,
        nu=CATALOG_NU,
        lam=CATALOG_LAMBDA,
        constant_theta=constant,
        name=key,
    )


@dataclass(frozen=True)
class ChangeInterval:
    """The changed model generates instants start..end inclusive.

    A point change is the one-instant interval start == end.
    """

    start: int
    end: int

    def active(self, t: int) -> bool:
        return self.start <= t <= self.end

    def times(self) -> list[int]:
        return list(range(self.start, self.end + 1))


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
    change: ChangeInterval
    T: int
    changed_vertices: np.ndarray

    def __post_init__(self):
        if self.f0.n != self.f1.n:
            raise ValueError("both models must share the vertex count")
        if not 1 < self.change.start <= self.change.end <= self.T:
            raise ValueError(
                f"change {self.change.start}..{self.change.end} invalid for T={self.T}"
            )
        cv = np.array(sorted(int(v) for v in np.asarray(self.changed_vertices)))
        if cv.size == 0 or cv.size >= self.f0.n or cv[0] < 0 or cv[-1] >= self.f0.n:
            raise ValueError("changed vertices must be a proper nonempty subset")
        cv.flags.writeable = False
        object.__setattr__(self, "changed_vertices", cv)

    @property
    def n(self) -> int:
        return self.f0.n

    @property
    def unchanged_vertices(self) -> np.ndarray:
        mask = np.ones(self.n, dtype=bool)
        mask[self.changed_vertices] = False
        return np.nonzero(mask)[0]

    @property
    def change_instant(self) -> int:
        """First instant generated by the changed model."""
        return self.change.start


def scenario(
    name: str,
    change_type: str = "point",
    T: int = DEFAULT_T,
    scale: float | None = None,
    t_star: int = DEFAULT_CHANGE_INSTANT,
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
    bounds = {"point": (t_star, t_star), "interval": DEFAULT_INTERVAL}
    if change_type not in bounds:
        raise ValueError(f"unknown change type {change_type!r}")
    change = ChangeInterval(*bounds[change_type])
    return ScenarioSpec(
        name=name, f0=f0, f1=f1, change=change, T=T, changed_vertices=changed
    )


def generate_sequence(spec: ScenarioSpec, rng: np.random.Generator) -> list[SnapshotMatrix]:
    """Sample the scenario's snapshot sequence.

    Degree propensities are redrawn independently at every instant, since
    consecutive snapshots are independent samples from the active model.
    The vertex-pair list is built once per sequence and each model's pair
    block index once, not once per instant.
    """
    pairs = _upper_pairs(spec.n)
    models = (spec.f0, spec.f1)
    blocks = [_pair_blocks(model, pairs) for model in models]
    snapshots = []
    for t in range(1, spec.T + 1):
        changed = int(spec.change.active(t))
        theta = sample_theta(models[changed], rng)
        snapshots.append(_draw(models[changed], theta, pairs, blocks[changed], rng, t))
    return snapshots
