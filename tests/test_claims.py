"""The paper's figure claims (``repro.eval.claims``) on a fresh payload."""

import copy
import dataclasses
import json

import pytest

from repro.eval.claims import BASELINE, CLAIMS, drift, failures, figures_payload


@pytest.fixture(scope="session")
def payload():
    return figures_payload()


@pytest.fixture(scope="session")
def baseline():
    return json.loads(BASELINE.read_text())


@pytest.mark.parametrize("claim", CLAIMS, ids=lambda claim: f"{claim.figure} {claim.quantity}")
def test_claim_holds(claim, payload):
    assert claim.failure(payload) is None


def test_no_leaf_drifted_from_the_baseline(payload, baseline):
    assert drift(payload, baseline) == []


def test_a_broken_claim_or_leaf_is_named(payload, baseline):
    claim = next(c for c in CLAIMS if c.quantity == "geomean PPW vs Titan Xp")

    def inverted(values):
        """each <= 3"""
        return not claim.holds(values)

    assert dataclasses.replace(claim, holds=inverted).failure(payload) == (
        "fig8: geomean PPW vs Titan Xp: each <= 3 does not hold for (9.973)"
    )
    edited = copy.deepcopy(baseline)
    edited["figures"]["fig8"]["summary"]["geomean_ppw_x_titan"] = 10.3
    edited["figures"]["fig13"]["rows"][0][0] = "K-means"
    edited["rule_search"]["MobileRobot"][0]["compile_seconds"] = -1.0  # wall clock
    now = payload["figures"]["fig8"]["summary"]["geomean_ppw_x_titan"]
    assert failures(payload, edited) == [
        "/figures/fig13/rows[0][0] drifted: baseline 'K-means', now 'Kmeans'",
        f"/figures/fig8/summary/geomean_ppw_x_titan drifted: baseline 10.3, now {now!r}",
    ]
    missing = copy.deepcopy(payload)
    del missing["fusion"]["OptionPricing"]
    found = failures(missing, baseline)
    assert found[0].startswith("fig10: fusion removes DMA transfers: cannot be measured (KeyError")
    assert "/fusion/OptionPricing/dma_transfers_after is missing" in found
