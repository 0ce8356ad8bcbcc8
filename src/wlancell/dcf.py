"""Saturated single-cell model of the 802.11 distributed coordination function.

A cell is one access point plus the stations associated with it, all within
carrier-sense range of each other.  Under saturation every station always has
a frame queued, so its behaviour is captured by two coupled quantities:

* ``beta`` -- the probability that a station attempts transmission in a
  given idle slot.  It follows from the mean backoff window averaged over
  retry stages: after each collision the contention window doubles (up to a
  cap), so a station that collides often attempts less frequently.
* ``gamma`` -- the conditional collision probability seen by an attempt.
  With ``n`` stations attempting independently, an attempt collides exactly
  when at least one of the other ``n - 1`` stations picks the same slot.

The classical decoupling approximation closes these two into a fixed point
``beta = G(gamma)``, ``gamma = 1 - (1 - beta)**(n-1)``, solved by
`_damped_iteration`, the one loop of this and the multi-cell fixed point
(`DAMPING`, `TOL`, at most `MAX_ITER` sweeps).  Throughput then follows
from renewal-reward over slot outcomes (idle, success, collision) with
frame durations computed from the PHY/MAC timing parameters.

Defaults target 11 Mb/s DSSS with long preambles: 20 us slots, DIFS 50 us,
SIFS 10 us, a 192 us PHY preamble+header on every frame, 28-byte MAC
overhead sent at the data rate, and 14-byte control frames (ACK) sent at
the 2 Mb/s basic rate.

Two conventions worth calling out:

* A single saturated station never collides and never idles between
  transmissions in this model's timescale, so its throughput is pinned to
  ``1 / T_success`` rather than the renewal-reward expression (which would
  charge it backoff idle time that a lone greedy sender largely amortises).
* TCP download traffic is mapped onto an equivalent saturated cell with two
  contenders (the AP streaming data downlink, and the stations' returning
  ACK stream behaving as one aggregate contender) exchanging frames of the
  average of the data and TCP-ACK sizes.
"""

from __future__ import annotations

import dataclasses
from collections import deque
from dataclasses import dataclass
from operator import mul, sub

from .errors import ConfigError, ConvergenceError, check_number

#: TCP/IP header overhead carried inside an 802.11 data frame payload, and
#: equally the size of a bare TCP ACK segment (40 bytes).
TCP_IP_HEADER_BITS = 320

#: Step size of `_damped_iteration`, the one loop of both fixed points
#: (here and in `wlancell.multicell.solve_fixed_point`): each sweep moves
#: this share of the way to the new target.
DAMPING = 0.5

#: The iteration stops once every update is smaller than this.
TOL = 1e-10

#: Sweeps the iteration takes before it raises ConvergenceError.
MAX_ITER = 10_000

#: Largest retry limit the 802.11 MIB allows (dot11LongRetryLimit).
MAX_RETRY_LIMIT = 255

_ACCESS_MODES = ("basic", "rtscts")

#: MacParams fields that must be strictly positive; every other numeric
#: field must be non-negative.
_POSITIVE_FIELDS = ("slot_time", "difs", "sifs", "data_rate", "control_rate",
                    "cw_min")


@dataclass(frozen=True)
class MacParams:
    """Timing and framing parameters of the MAC/PHY.

    Times are seconds, sizes are bits, rates are bits per second.
    """

    slot_time: float = 20e-6
    difs: float = 50e-6
    sifs: float = 10e-6
    phy_header_time: float = 192e-6
    mac_header_bits: int = 224
    ack_bits: int = 112
    rts_bits: int = 160
    cts_bits: int = 112
    data_rate: float = 11e6
    control_rate: float = 2e6
    payload_bits: int = 8000
    cw_min: int = 32
    backoff_doubling_cap: int = 5
    retry_limit: int = 7
    access_mode: str = "basic"

    def __post_init__(self) -> None:
        for f in dataclasses.fields(self):
            if f.type == "str":
                continue
            value = check_number(getattr(self, f.name), f.name,
                                 integer=f.type == "int")
            # the model computes in floats, exact for integers below 2**53
            if f.type == "int" and value >= 2 ** 53:
                raise ConfigError(
                    f"{f.name} must be below 2**53, got {value!r}")
            if f.name in _POSITIVE_FIELDS and value <= 0:
                raise ConfigError(f"{f.name} must be positive, got {value!r}")
            if value < 0:
                raise ConfigError(
                    f"{f.name} must be non-negative, got {value!r}")
        if self.cw_min < 2:
            # the first-stage attempt probability 2 / cw_min must not exceed 1
            raise ConfigError(f"cw_min must be at least 2, got {self.cw_min}")
        if self.retry_limit > MAX_RETRY_LIMIT:
            raise ConfigError(f"retry_limit must be at most {MAX_RETRY_LIMIT}, "
                              f"got {self.retry_limit}")
        doublings = min(self.retry_limit, self.backoff_doubling_cap)
        if 2 ** doublings * self.cw_min >= 2 ** 53:
            # keeps every attempt probability at least 2**-52, so that
            # 1 - beta stays below 1 and every cell gets to transmit
            raise ConfigError(
                f"largest backoff window 2**{doublings} * cw_min must stay "
                f"below 2**53, got cw_min={self.cw_min}")
        if self.access_mode not in _ACCESS_MODES:
            raise ConfigError(
                f"access_mode must be one of {_ACCESS_MODES}, "
                f"got {self.access_mode!r}")


@dataclass(frozen=True)
class SingleCellResult:
    """Solved operating point of one saturated cell.

    ``throughput_pps`` is the aggregate cell throughput in packets per
    second; divide by the number of stations for per-station throughput.
    """

    beta: float
    gamma: float
    throughput_pps: float


def mean_backoffs(params: MacParams) -> tuple[float, ...]:
    """Mean backoff drawn at each retry stage, in slots.

    Stage ``k`` draws uniformly from a window of ``2**min(k, cap) * cw_min``
    slots, so the mean is half the window.
    """
    return tuple(
        2 ** min(k, params.backoff_doubling_cap) * params.cw_min / 2
        for k in range(params.retry_limit + 1))


def attempt_prob_G(gamma: float, params: MacParams) -> float:
    """Per-slot attempt probability of a station facing collision prob ``gamma``.

    This is the ratio of the expected number of attempts per frame to the
    expected number of backoff slots spent on it, with the retry-stage
    distribution geometric in ``gamma`` and truncated at the retry limit.
    At ``gamma = 0`` it reduces to ``1 / mean first-stage backoff``.
    """
    if not 0.0 <= gamma <= 1.0:
        raise ConfigError(f"gamma must lie in [0, 1], got {gamma}")
    return _attempt_prob(gamma, mean_backoffs(params))


def _attempt_prob(gamma: float, backoffs: tuple[float, ...]) -> float:
    """`attempt_prob_G` on an unchecked ``gamma``, given the
    `mean_backoffs` of the MAC parameters."""
    weights = [gamma ** k for k in range(len(backoffs))]
    attempts = sum(weights)
    slots = sum(map(mul, weights, backoffs))
    return attempts / slots


def frame_durations(params: MacParams) -> tuple[float, float]:
    """Durations in seconds of a successful exchange and of a collision.

    A success is DATA + SIFS + ACK + DIFS.  A basic-access collision ties
    the channel for the full data frame plus DIFS; with RTS/CTS only the
    RTS is lost.  Control frames go out at the basic rate, everything else
    at the data rate, and every frame pays the PHY preamble+header time.
    """
    t_data = (params.phy_header_time
              + (params.mac_header_bits + params.payload_bits) / params.data_rate)
    t_ack = params.phy_header_time + params.ack_bits / params.control_rate
    t_success = t_data + params.sifs + t_ack + params.difs
    if params.access_mode == "rtscts":
        t_rts = params.phy_header_time + params.rts_bits / params.control_rate
        t_collision = t_rts + params.difs
    else:
        t_collision = t_data + params.difs
    return t_success, t_collision


def single_cell_fixed_point(n: int, params: MacParams) -> SingleCellResult:
    """Solve the beta/gamma fixed point for ``n`` saturated stations.

    `_damped_iteration` on the 1-tuple ``(gamma,)`` from ``gamma = 0``,
    with target ``1 - (1 - G(gamma))**(n-1)``, so a ConvergenceError
    carries 1-tuples.  ``throughput_pps`` is the cell's standalone
    throughput, by `_throughput` at the solved ``beta``.
    """
    if n < 1:
        raise ConfigError(f"need at least one station, got n={n}")
    backoffs = mean_backoffs(params)
    # gamma stays in [0, 1] by construction: no per-iteration check
    (gamma,), _, _ = _damped_iteration(
        lambda x: (1.0 - (1.0 - _attempt_prob(x[0], backoffs)) ** (n - 1),),
        (0.0,), f"single-cell fixed point for n={n}")
    beta = _attempt_prob(gamma, backoffs)
    return SingleCellResult(beta=beta, gamma=gamma,
                            throughput_pps=_throughput(n, params, beta))


def _damped_iteration(target, x: tuple[float, ...], what: str
                      ) -> tuple[tuple[float, ...], int, float]:
    """Fixed point of ``target`` (a tuple to an iterable of as many
    floats) by damped iteration from ``x``.

    Each sweep moves every entry `DAMPING` of the way to its target,
    ``x <- (1 - DAMPING) * x + DAMPING * target(x)``.  Returns ``(x,
    iterations, residual)`` once the largest update falls below `TOL`;
    after `MAX_ITER` sweeps raises ConvergenceError naming ``what``, with
    the last residual and the last ten iterates.
    """
    keep = 1.0 - DAMPING
    tail: deque[tuple[float, ...]] = deque(maxlen=10)
    for iteration in range(1, MAX_ITER + 1):
        x_next = tuple([keep * v + DAMPING * t for v, t in zip(x, target(x))])
        residual = max(map(abs, map(sub, x_next, x)))
        x = x_next
        tail.append(x)
        if residual < TOL:
            return x, iteration, residual
    raise ConvergenceError(
        f"{what} did not converge within {MAX_ITER} iterations",
        residual=residual, iterations=MAX_ITER, history=tail)


def _throughput(n: int, params: MacParams, beta: float) -> float:
    """Saturation throughput of ``n`` stations at attempt probability
    ``beta``, packets/s.

    Renewal-reward over slot outcomes: a slot is idle with no attempt,
    carries a success with exactly one, and a collision otherwise.  For
    ``n == 1`` the cell sends back-to-back successful frames, so the rate
    is ``1 / T_success`` by convention (see module docstring).
    """
    t_success, t_collision = frame_durations(params)
    if n == 1:
        return 1.0 / t_success
    p_tr = 1.0 - (1.0 - beta) ** n
    p_succ = n * beta * (1.0 - beta) ** (n - 1) / p_tr
    mean_slot = ((1.0 - p_tr) * params.slot_time
                 + p_tr * p_succ * t_success
                 + p_tr * (1.0 - p_succ) * t_collision)
    return p_tr * p_succ / mean_slot


def tcp_equivalent_cell(params: MacParams) -> tuple[int, MacParams]:
    """Map a TCP-download cell onto an equivalent saturated configuration.

    Persistent TCP downloads self-clock: the AP can only send as fast as
    ACKs return, so regardless of how many stations subscribe, the cell
    behaves like two saturated contenders (AP data vs. aggregate ACKs).
    Data frames carry the payload plus TCP/IP headers, ACK frames just the
    headers; the equivalent cell uses the average frame size of the two.

    Returns ``(n_equivalent, adjusted_params)``.
    """
    data_bits = params.payload_bits + TCP_IP_HEADER_BITS
    ack_bits = TCP_IP_HEADER_BITS
    avg_bits = round((data_bits + ack_bits) / 2)
    return 2, dataclasses.replace(params, payload_bits=avg_bits)


def mac_from_dict(raw: dict, base: MacParams | None = None) -> MacParams:
    """Build MacParams from a JSON-style mapping, on top of ``base`` defaults.

    Unknown keys raise ConfigError so typos in config files fail loudly.
    """
    base = base if base is not None else MacParams()
    valid = {f.name: f.type for f in dataclasses.fields(MacParams)}
    updates = {}
    for key, value in raw.items():
        if key not in valid:
            raise ConfigError(f"unknown MAC parameter {key!r}")
        updates[key] = value
    try:
        return dataclasses.replace(base, **updates)
    except TypeError as exc:
        raise ConfigError(f"bad MAC parameter value: {exc}") from exc
