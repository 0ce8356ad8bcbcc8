"""Single-cell model: attempt probability, fixed point, throughput."""

import dataclasses
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import optimize

from wlancell import dcf
from wlancell.errors import ConfigError, ConvergenceError

MAC = dcf.MacParams()

# Frozen from the default 802.11b parameters (11 Mb/s data, 2 Mb/s
# control, 1000-byte payload, long preamble).
T_SUCCESS = 0.0012476363636363635
T_COLLISION = 0.0009896363636363635


def oracle_gamma(n: int, params: dcf.MacParams = MAC) -> float:
    """Root of gamma = 1 - (1 - G(gamma))**(n-1), found independently."""
    return optimize.brentq(
        lambda g: g - (1.0 - (1.0 - dcf.attempt_prob_G(g, params)) ** (n - 1)),
        0.0, 1.0 - 1e-12, xtol=1e-14)


def test_frame_durations_frozen():
    t_s, t_c = dcf.frame_durations(MAC)
    assert t_s == pytest.approx(T_SUCCESS, rel=1e-12)
    assert t_c == pytest.approx(T_COLLISION, rel=1e-12)


def test_frame_durations_rtscts():
    mac = dataclasses.replace(MAC, access_mode="rtscts")
    t_s, t_c = dcf.frame_durations(mac)
    # success duration is unchanged, a collision only burns the RTS
    assert t_s == pytest.approx(T_SUCCESS, rel=1e-12)
    assert t_c == pytest.approx(192e-6 + 160 / 2e6 + 50e-6, rel=1e-12)
    assert t_c < T_COLLISION


def test_mean_backoffs_double_until_cap():
    assert dcf.mean_backoffs(MAC) == (16, 32, 64, 128, 256, 512, 512, 512)


def test_attempt_prob_endpoints():
    # gamma = 0: one attempt, one first-stage backoff of mean 16 slots
    assert dcf.attempt_prob_G(0.0, MAC) == 1 / 16
    # gamma = 1: all 8 stages visited, 2032 slots in total
    assert dcf.attempt_prob_G(1.0, MAC) == 8 / 2032


@pytest.mark.parametrize("gamma", [-0.01, 1.01, float("nan")])
def test_attempt_prob_rejects_out_of_range(gamma):
    with pytest.raises(ConfigError):
        dcf.attempt_prob_G(gamma, MAC)


@given(g1=st.floats(0.0, 1.0), g2=st.floats(0.0, 1.0))
def test_attempt_prob_monotone_decreasing(g1, g2):
    lo, hi = sorted((g1, g2))
    assert dcf.attempt_prob_G(hi, MAC) <= dcf.attempt_prob_G(lo, MAC)


@given(gamma=st.floats(0.0, 1.0))
def test_attempt_prob_bounded_by_collision_free_value(gamma):
    g = dcf.attempt_prob_G(gamma, MAC)
    assert 0.0 < g <= 1 / 16


@pytest.mark.parametrize("n, frozen", [
    (2, 0.05860896631915355),
    (5, 0.18116616541145328),
    (10, 0.29269562811142774),
])
def test_fixed_point_matches_independent_root(n, frozen):
    result = dcf.single_cell_fixed_point(n, MAC)
    assert result.gamma == pytest.approx(oracle_gamma(n), abs=1e-9)
    assert result.gamma == pytest.approx(frozen, abs=1e-11)


def test_fixed_point_beta_consistent_with_gamma():
    result = dcf.single_cell_fixed_point(7, MAC)
    assert result.beta == dcf.attempt_prob_G(result.gamma, MAC)


def test_single_station_never_collides():
    result = dcf.single_cell_fixed_point(1, MAC)
    assert result.gamma == 0.0
    assert result.beta == 1 / 16
    assert result.throughput_pps == pytest.approx(1 / T_SUCCESS, rel=1e-12)


def test_collision_pressure_grows_with_n():
    gammas = [dcf.single_cell_fixed_point(n, MAC).gamma for n in range(2, 31)]
    assert all(a < b for a, b in zip(gammas, gammas[1:]))


@pytest.mark.parametrize("n, frozen", [
    (1, 801.5155931215389),
    (2, 694.8956300743124),
    (5, 698.1055516003255),
    (10, 669.8359789032667),
])
def test_throughput_frozen(n, frozen):
    assert dcf.single_cell_fixed_point(n, MAC).throughput_pps == pytest.approx(
        frozen, rel=1e-12)


def test_gamma_independent_of_payload():
    small = dataclasses.replace(MAC, payload_bits=1000)
    assert (dcf.single_cell_fixed_point(5, small).gamma
            == dcf.single_cell_fixed_point(5, MAC).gamma)


def test_longer_payload_means_fewer_packets():
    small = dataclasses.replace(MAC, payload_bits=4000)
    large = dataclasses.replace(MAC, payload_bits=16000)
    assert (dcf.single_cell_fixed_point(5, small).throughput_pps
            > dcf.single_cell_fixed_point(5, large).throughput_pps)


def test_fixed_point_reports_non_convergence(monkeypatch):
    for max_iter in (1, 12):
        monkeypatch.setattr(dcf, "MAX_ITER", max_iter)
        with pytest.raises(ConvergenceError) as excinfo:
            dcf.single_cell_fixed_point(5, MAC)
        err = excinfo.value
        assert err.iterations == max_iter
        assert err.residual > 0
        # the last ten iterates at most, each a 1-tuple (gamma,)
        assert len(err.history) == min(max_iter, 10)
        assert all(len(x) == 1 and 0.0 < x[0] < 1.0 for x in err.history)


def test_fixed_point_rejects_zero_stations():
    with pytest.raises(ConfigError):
        dcf.single_cell_fixed_point(0, MAC)


def test_tcp_equivalent_cell_averages_frame_sizes():
    n_eff, mac_eff = dcf.tcp_equivalent_cell(MAC)
    assert n_eff == 2
    # (8000 + 320 data headers + 320 bare ACK) / 2
    assert mac_eff.payload_bits == 4320
    assert mac_eff.slot_time == MAC.slot_time
    assert MAC.payload_bits == 8000  # original untouched


def test_mac_from_dict_rejects_unknown_keys():
    with pytest.raises(ConfigError, match="unknown MAC parameter"):
        dcf.mac_from_dict({"payload_bytes": 1000})


def test_mac_from_dict_layers_over_base():
    base = dcf.mac_from_dict({"payload_bits": 4000})
    mac = dcf.mac_from_dict({"cw_min": 16}, base=base)
    assert mac.payload_bits == 4000
    assert mac.cw_min == 16
    assert mac.slot_time == MAC.slot_time


@pytest.mark.parametrize("overrides", [
    {"slot_time": 0.0},
    {"data_rate": -1.0},
    {"payload_bits": -8},
    {"cw_min": 0},
    {"cw_min": 1},
    {"backoff_doubling_cap": -1},
    {"retry_limit": -1},
    {"access_mode": "polling"},
])
def test_mac_params_validate_fields(overrides):
    with pytest.raises(ConfigError):
        dcf.mac_from_dict(overrides)


@pytest.mark.parametrize("overrides, match", [
    ({"retry_limit": 256}, "retry_limit must be at most 255"),
    ({"retry_limit": 2000, "backoff_doubling_cap": 2000}, "retry_limit"),
    ({"cw_min": 10**17}, r"below 2\*\*53"),
    ({"cw_min": 2**48}, r"below 2\*\*53"),
    ({"cw_min": 2, "backoff_doubling_cap": 52, "retry_limit": 52},
     r"below 2\*\*53"),
])
def test_mac_params_bound_the_backoff_window(overrides, match):
    with pytest.raises(ConfigError, match=match):
        dcf.MacParams(**overrides)


def test_largest_backoff_window_keeps_every_cell_transmitting():
    # just inside the bounds: the slowest attempt probability is 2**-52,
    # so 1 - beta stays below 1 and the throughput stays finite
    mac = dcf.MacParams(cw_min=2**48 - 1, retry_limit=255)
    beta = dcf.attempt_prob_G(1.0, mac)
    assert beta >= 2.0**-52
    assert 1.0 - beta < 1.0
    assert math.isfinite(dcf.single_cell_fixed_point(5, mac).throughput_pps)


@pytest.mark.parametrize("field", ["slot_time", "sifs", "phy_header_time",
                                   "data_rate"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 10**400])
def test_mac_params_reject_non_finite_floats(field, value):
    with pytest.raises(ConfigError, match=f"{field} must be a finite number"):
        dcf.MacParams(**{field: value})


@pytest.mark.parametrize("field", ["cw_min", "payload_bits", "retry_limit"])
@pytest.mark.parametrize("value", [32.5, 32.0, "32"])
def test_mac_params_reject_non_integer_ints(field, value):
    with pytest.raises(ConfigError, match=f"{field} must be an integer"):
        dcf.MacParams(**{field: value})


@pytest.mark.parametrize("field,value", [("payload_bits", True),
                                         ("slot_time", True)])
def test_mac_params_reject_bools(field, value):
    with pytest.raises(ConfigError, match=field):
        dcf.MacParams(**{field: value})
