"""Hierarchical Pitman-Yor smoothing over a suffix-organized context trie.

Each context (a chain of integers, earliest element first and nearest
last) owns a restaurant in the Chinese-restaurant representation. The
trie is keyed from the nearest element outward, so the parent of the
node for context u is the node for u with its earliest element dropped:
smoothing always backs off toward shorter, more recent context.

Seating follows the minimal assumption: a customer opens a new table
only when no table in the restaurant already serves the dish, so per
restaurant each dish has at most one table, and exactly one proxy
customer per (restaurant, dish) propagates to the parent. The top
restaurant (empty context) sends its proxies to the base distribution,
one per dish it serves, so ``base_counts`` is derived from it.

The trie is generic over integer contexts and integer dishes; grammar
coupling (contexts from tree ancestors, dishes as rule ids) lives in
the model layer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


class Restaurant:
    """Customer counts per dish, plus child restaurants. Minimal seating
    gives each present dish one table, so table counts are derived."""

    __slots__ = ("customers", "total_customers", "children")

    def __init__(self) -> None:
        self.customers: dict[int, int] = {}
        self.total_customers = 0
        self.children: dict[int, "Restaurant"] = {}

    @property
    def tables(self) -> dict[int, int]:
        return dict.fromkeys(self.customers, 1)

    @property
    def total_tables(self) -> int:
        return len(self.customers)

    def is_empty(self) -> bool:
        return self.total_customers == 0


@dataclass
class DepthParams:
    """Per-depth discount/concentration values with their hyperpriors.

    ``discount[m]`` and ``concentration[m]`` apply to restaurants whose
    context has length m (the empty context is depth 0). Queries deeper
    than the stored vector share the deepest entry.
    """

    discount: np.ndarray
    concentration: np.ndarray
    beta_a: np.ndarray
    beta_b: np.ndarray
    gamma_shape: np.ndarray
    gamma_rate: np.ndarray

    @classmethod
    def uniform(
        cls,
        depths: int,
        discount: float = 0.5,
        concentration: float = 1.0,
        beta_a: float = 1.0,
        beta_b: float = 1.0,
        gamma_shape: float = 1.0,
        gamma_rate: float = 1.0,
    ) -> "DepthParams":
        n = max(depths, 1)
        return cls(
            discount=np.full(n, discount),
            concentration=np.full(n, concentration),
            beta_a=np.full(n, beta_a),
            beta_b=np.full(n, beta_b),
            gamma_shape=np.full(n, gamma_shape),
            gamma_rate=np.full(n, gamma_rate),
        )

    @property
    def depths(self) -> int:
        return len(self.discount)

    def at(self, depth: int) -> tuple[float, float]:
        m = min(depth, self.depths - 1)
        return float(self.discount[m]), float(self.concentration[m])

    def check_box(self) -> None:
        # written so that NaN, for which every comparison is false, fails
        if not np.all(np.isfinite(self.concentration) & (self.concentration >= 0)):
            raise ValueError("concentration must be finite and >= 0")
        if not np.all((self.discount >= 0) & (self.discount < 1)):
            raise ValueError("discount must lie in [0, 1)")


class BaseDistribution:
    """Probability over the dish vocabulary; must sum to one."""

    UNIFORM = "uniform"
    MLE_PCFG = "mle"

    def __init__(self, variant: str, probs: np.ndarray):
        total = float(probs.sum())
        if not math.isclose(total, 1.0, rel_tol=0, abs_tol=1e-9):
            raise ValueError(f"base distribution sums to {total!r}, not 1")
        self.variant = variant
        self.probs = probs

    @classmethod
    def uniform(cls, num_dishes: int) -> "BaseDistribution":
        return cls(cls.UNIFORM, np.full(num_dishes, 1.0 / num_dishes))

    def prob(self, dish: int) -> float:
        return float(self.probs[dish])

    def __len__(self) -> int:
        return len(self.probs)


@dataclass
class ContextTrie:
    """Suffix trie of restaurants plus base-draw counts at the top."""

    num_dishes: int
    root: Restaurant = field(default_factory=Restaurant)
    num_events: int = 0
    max_depth: int = 0

    @property
    def base_counts(self) -> dict[int, int]:
        """Base draws per dish: the top restaurant's one proxy per dish."""
        return self.root.tables

    def insert(self, context: tuple[int, ...], dish: int) -> None:
        """Seat one customer for ``dish`` at ``context``, with proxies.

        Restaurants missing from the context's ``chain`` are created. A
        new table (first customer for the dish in that restaurant) sends a
        proxy customer one level up; at the top it becomes a base draw.
        """
        if not 0 <= dish < self.num_dishes:
            raise KeyError(f"dish {dish} outside vocabulary of {self.num_dishes}")
        path = self.chain(context)
        for element in reversed(context[: len(context) + 1 - len(path)]):
            path.append(Restaurant())
            path[-2].children[element] = path[-1]
        self.num_events += 1
        self.max_depth = max(self.max_depth, len(context))
        for restaurant in reversed(path):
            count = restaurant.customers.get(dish, 0) + 1
            restaurant.customers[dish] = count
            restaurant.total_customers += 1
            if count > 1:
                return  # existing table: no proxy continues upward

    def chain(self, context: tuple[int, ...]) -> list[Restaurant]:
        """Stored restaurants along the path for ``context``: the trie's one
        context lookup. Entry i is the restaurant for the context's last i
        elements, so ``chain(c)[:k + 1]`` is the chain of c's last k
        elements, and the last entry fixes the rest. Levels beyond the
        stored prefix are omitted; they hold no customers and reduce to
        identity backoff.
        """
        out = [self.root]
        node = self.root
        for element in reversed(context):
            node = node.children.get(element)
            if node is None:
                break
            out.append(node)
        return out

    def predictive_prob(
        self,
        context: tuple[int, ...],
        dish: int,
        params: DepthParams,
        base: BaseDistribution,
    ) -> float:
        """P(dish | context): ``predictive_probs`` for a single dish."""
        if not 0 <= dish < self.num_dishes:
            raise KeyError(f"dish {dish} outside vocabulary of {self.num_dishes}")
        return float(self.predictive_probs(self.chain(context), [dish], params, base)[0])

    def predictive_probs(
        self,
        chain: list[Restaurant],
        dishes: list[int],
        params: DepthParams,
        base: BaseDistribution,
        memo: dict[Restaurant, np.ndarray] | None = None,
    ) -> np.ndarray:
        """P(dish | context) for each of ``dishes``, folded over ``chain(context)``.

        Starting from the base probabilities, each stored level u applies

            p = (n_d - d*t_d)/(n + c) + (c + d*t)/(n + c) * p_parent

        with (d, c) taken from the level's depth, t_d = 1 for a present
        dish (else 0) and t the number of present dishes. Empty
        restaurants pass the parent value through unchanged, which also
        covers queries deeper than anything stored.

        ``memo``, if given, maps restaurants to their vectors for these same
        ``dishes``: the fold starts after the deepest chain entry in it and
        memoizes each stored level it applies. Entry k of every chain is the
        restaurant at depth k, so the floats are those of the whole fold.
        """
        memo = {} if memo is None else memo
        start = next((k for k in range(len(chain), 0, -1) if chain[k - 1] in memo), 0)
        probs = memo[chain[start - 1]] if start else base.probs[dishes]
        for depth, restaurant in enumerate(chain[start:], start):
            if restaurant.is_empty():
                continue
            discount, concentration = params.at(depth)
            customers = restaurant.customers
            denom = restaurant.total_customers + concentration
            weight = (concentration + discount * len(customers)) / denom
            own = np.array(
                [customers[d] - discount if d in customers else 0.0 for d in dishes]
            )
            probs = memo[restaurant] = own / denom + weight * probs
        return probs

    # -- traversal helpers -------------------------------------------------

    def iter_restaurants(self):
        """Yield (depth, context-from-nearest-element, restaurant) in DFS order."""
        stack: list[tuple[int, tuple[int, ...], Restaurant]] = [(0, (), self.root)]
        while stack:
            depth, key, node = stack.pop()
            yield depth, key, node
            for element in sorted(node.children, reverse=True):
                stack.append((depth + 1, key + (element,), node.children[element]))

    def depth_count(self) -> int:
        """Number of parameter depths needed: deepest restaurant plus one."""
        return self.max_depth + 1


@dataclass
class SeatingStats:
    """Per-depth sufficient statistics of the seating arrangement.

    For depth m, ``tables_ge[m][i]`` counts restaurants with more than i
    tables, ``customers_ge[m][i]`` counts restaurants with more than i
    customers, and ``dish_customers_ge[m][i]`` counts (restaurant, dish)
    pairs with more than i+1 customers. These are exactly the exponent
    histograms of the generalized-factorial likelihood terms.
    """

    tables_ge: list[np.ndarray]
    customers_ge: list[np.ndarray]
    dish_customers_ge: list[np.ndarray]
    log_base_term: float

    @classmethod
    def collect(cls, trie: ContextTrie, base: BaseDistribution) -> "SeatingStats":
        depths = trie.depth_count()
        tables: list[list[int]] = [[] for _ in range(depths)]
        customers: list[list[int]] = [[] for _ in range(depths)]
        dish_customers: list[list[int]] = [[] for _ in range(depths)]
        for depth, _, restaurant in trie.iter_restaurants():
            if restaurant.is_empty():
                continue
            tables[depth].append(restaurant.total_tables)
            customers[depth].append(restaurant.total_customers)
            dish_customers[depth].extend(
                n - 1 for n in restaurant.customers.values() if n >= 2
            )
        log_base = 0.0
        for dish, count in trie.base_counts.items():
            p = base.prob(dish)
            log_base += count * math.log(p) if p > 0 else float("-inf")
        return cls(
            tables_ge=[_exceedance(v) for v in tables],
            customers_ge=[_exceedance(v) for v in customers],
            dish_customers_ge=[_exceedance(v) for v in dish_customers],
            log_base_term=log_base,
        )

    @property
    def depths(self) -> int:
        return len(self.tables_ge)


def _exceedance(values: list[int]) -> np.ndarray:
    """counts[i] = number of values strictly greater than i."""
    if not values:
        return np.zeros(0, dtype=np.int64)
    hist = np.bincount(values)
    counts = len(values) - np.cumsum(hist)
    return counts[:-1].astype(np.int64)


def log_posterior_from_stats(
    stats: SeatingStats, params: DepthParams, with_grad: bool = False
):
    """Log prior + log likelihood of the seating under ``params``.

    The likelihood per restaurant is a ratio of generalized factorials;
    in log space each factor is a sum of ``log(a + i*b)`` terms, pooled
    here across restaurants of equal depth via exceedance histograms.
    Returns the scalar, or (scalar, gradient) with the gradient laid out
    as [d_0, c_0, d_1, c_1, ...].
    """
    params.check_box()
    total = stats.log_base_term
    grad = np.zeros(2 * stats.depths) if with_grad else None
    for m in range(stats.depths):
        d, c = params.at(m)
        a, b = float(params.beta_a[m]), float(params.beta_b[m])
        shape, rate = float(params.gamma_shape[m]), float(params.gamma_rate[m])

        total += _log_beta_pdf(d, a, b) + _log_gamma_pdf(c, shape, rate)

        t_ge = stats.tables_ge[m]
        n_ge = stats.customers_ge[m]
        r_ge = stats.dish_customers_ge[m]
        i_t = np.arange(len(t_ge))
        i_n = np.arange(len(n_ge))
        i_r = np.arange(len(r_ge))
        table_terms = c + i_t * d
        cust_terms = c + i_n
        dish_terms = 1.0 - d + i_r
        total += float(t_ge @ np.log(table_terms)) if len(t_ge) else 0.0
        total -= float(n_ge @ np.log(cust_terms)) if len(n_ge) else 0.0
        total += float(r_ge @ np.log(dish_terms)) if len(r_ge) else 0.0

        if with_grad:
            dd = (0.0 if a == 1.0 else (a - 1.0) / d) - (
                0.0 if b == 1.0 else (b - 1.0) / (1.0 - d)
            )
            dc = (0.0 if shape == 1.0 else (shape - 1.0) / c) - rate
            if len(t_ge):
                dd += float(t_ge @ (i_t / table_terms))
                dc += float(t_ge @ (1.0 / table_terms))
            if len(n_ge):
                dc -= float(n_ge @ (1.0 / cust_terms))
            if len(r_ge):
                dd -= float(r_ge @ (1.0 / dish_terms))
            grad[2 * m] = dd
            grad[2 * m + 1] = dc
    if with_grad:
        return total, grad
    return total


def _log_beta_pdf(x: float, a: float, b: float) -> float:
    out = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    if a != 1.0:
        out += (a - 1.0) * math.log(x)
    if b != 1.0:
        out += (b - 1.0) * math.log1p(-x)
    return out


def _log_gamma_pdf(x: float, shape: float, rate: float) -> float:
    out = shape * math.log(rate) - math.lgamma(shape) - rate * x
    if shape != 1.0:
        out += (shape - 1.0) * math.log(x)
    return out
