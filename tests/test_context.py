"""The cached facts of ``AlgebraContext``: each attribute reads its entry,
and each entry's builder is looked up through its module."""

from __future__ import annotations

import pytest

from quasihopf import canonical, intcoint
from quasihopf.context import AlgebraContext

# entry -> its attributes
ENTRY_ATTRIBUTES = {
    "gamma_delta": ("gamma_delta", "gamma", "delta_el"),
    "twist": ("twist", "f", "f_inv"),
    "pq": ("pq", "p_r", "q_r", "p_l", "q_l"),
    "uv": ("uv", "u_cap", "v_cap"),
    "integral_data": ("integral_data", "t", "r", "mu", "mu_inv"),
    "cointegral_data": ("cointegral_data", "lam", "big_lam", "g_mod", "g_mod_inv"),
    "comparison": ("comparison", "u_el", "u_inv", "v_el", "v_inv"),
}

# entry -> the memo keys its builder reads on H8+
_CANONICAL = {"ops", "s_inv", "gamma_delta", "twist", "pq", "uv"}
_COINTEGRAL = _CANONICAL | {"integral_data", "cointegral_space:left", "cointegral_space:right",
                            "rc_pairs", "variant:cop"}
ENTRY_READS = {
    "gamma_delta": {"ops", "s_inv"},
    "twist": {"ops", "s_inv", "gamma_delta"},
    "pq": {"ops", "s_inv"},
    "uv": _CANONICAL - {"uv"},
    "integral_data": set(),
    "cointegral_data": _COINTEGRAL,
    "comparison": _COINTEGRAL | {"cointegral_data"},
}

# the builders a tracer wraps on their modules -> an attribute that runs each
TRACED_BUILDERS = {
    (canonical, "gamma_delta"): "gamma",
    (canonical, "drinfeld_twist"): "f",
    (canonical, "pq_elements"): "p_r",
    (canonical, "uv_elements"): "u_cap",
    (intcoint, "compute_integral_data"): "t",
    (intcoint, "compute_cointegral_data"): "lam",
}


@pytest.mark.parametrize("entry, attr", [(entry, attr)
                                         for entry, attrs in ENTRY_ATTRIBUTES.items()
                                         for attr in attrs])
def test_each_attribute_reads_its_entry(h8p, entry, attr):
    """On a fresh context an attribute puts its entry's key in the memo,
    and no key but those of the entries its builder reads."""
    ctx = AlgebraContext(h8p)
    getattr(ctx, attr)
    assert set(ctx._memo) == {entry} | ENTRY_READS[entry]


def test_builders_are_looked_up_through_their_modules(h8p, monkeypatch):
    """A wrapper put on a builder's module after the class was made sees
    the builder run, once per context: the tracer's spans rest on this.
    (The cointegrals also build entries of the context of H^cop.)"""
    contexts = {key: [] for key in TRACED_BUILDERS}

    def recording(key, fn):
        def wrapper(ctx):
            contexts[key].append(ctx)
            return fn(ctx)
        return wrapper

    for key in TRACED_BUILDERS:
        module, name = key
        monkeypatch.setattr(module, name, recording(key, getattr(module, name)))
    ctx = AlgebraContext(h8p)
    for attr in TRACED_BUILDERS.values():
        getattr(ctx, attr)
        getattr(ctx, attr)
    assert {key: [c is ctx for c in seen].count(True) for key, seen in contexts.items()} \
        == dict.fromkeys(TRACED_BUILDERS, 1)
