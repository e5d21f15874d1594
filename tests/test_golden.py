"""Pinned scores and parameter counts for a fixed set of candidates.

Every value was recorded from the engine and is compared exactly:
``repr(score)`` for the float and ``n_param`` for the count.  The
candidates span the 2O/3O/5O sets, one to three cells, both code modes,
both input codings and the bias-free macro, and two 2-cell 2O searches
pin the best/literal carryover policies.  A change that moves any value
must show the old and new values and say why in CHANGES.md; the file is
never re-recorded silently.
"""

import pytest

from spikenas.arch import OPSETS, MacroConfig, build_network, decode_cell
from spikenas.data import sample_batch, synth_dataset
from spikenas.memmodel import count_network_params
from spikenas.score import score_candidate
from spikenas.search import SearchConfig, search_memory_aware
from spikenas.snn import LIFParams

MACRO = MacroConfig(stem_channels=4, num_classes=4)
LIF = LIFParams(v_threshold=0.2, timesteps=2)
WEIGHT_SEED = 7

# (opset, per-cell indices, code_mode, input_coding, no_bias, repr(score), n_param)
CANDIDATES = [
    ("2O", (0,), "any", "direct", False, "27.614256104647012", 132),
    ("2O", (63,), "any", "direct", False, "31.99290879002182", 1020),
    ("2O", (40,), "any", "direct", False, "30.477589833677676", 428),
    ("2O", (21, 42), "any", "direct", False, "32.56290533102327", 2384),
    ("2O", (40,), "concat", "direct", False, "31.901071290928257", 428),
    ("2O", (40,), "any", "rate", False, "34.181181954289265", 428),
    ("2O", (63, 63), "any", "direct", True, "34.1468075544471", 4492),
    ("3O", (5,), "any", "direct", False, "30.166929856089993", 280),
    ("3O", (728,), "any", "direct", False, "29.039995509489053", 132),
    ("3O", (5, 17), "any", "direct", False, "31.33708912041363", 920),
    ("3O", (100, 200, 300), "any", "direct", False, "34.10252345133085", 6468),
    ("3O", (100, 200), "concat", "rate", False, "37.58031064741509", 1652),
    ("3O", (17,), "any", "direct", True, "30.2084314757087", 268),
    ("5O", (0,), "any", "direct", False, "25.549556866658282", 132),
    ("5O", (15624,), "any", "direct", False, "29.039995509489053", 132),
    ("5O", (1234,), "any", "direct", False, "27.71588556748886", 132),
    ("5O", (7777, 3125), "any", "direct", False, "30.216473218257164", 268),
    ("5O", (9999, 4321, 12345), "any", "direct", False, "28.98729704233594", 7544),
    ("5O", (1234,), "concat", "direct", False, "29.0693791021309", 132),
    ("5O", (7777,), "any", "rate", False, "34.241851073644376", 212),
    ("5O", (2718, 3141), "concat", "direct", True, "29.77578031332364", 1180),
]

# carryover -> (per-cell best indices, repr(best score), n_param)
SEARCHES = {
    "best": ((21, 63), "35.460259432427534", 4136),
    "literal": ((21, 21), "35.441776449237196", 2384),
}


@pytest.fixture(scope="module")
def dataset():
    return synth_dataset(64, 4, seed=11)


def _case_id(case):
    opset, indices, code_mode, input_coding, no_bias = case[:5]
    cells = "-".join(map(str, indices))
    return f"{opset}-{cells}-{code_mode}-{input_coding}" + ("-nobias" if no_bias else "")


@pytest.mark.parametrize("case", CANDIDATES, ids=[_case_id(c) for c in CANDIDATES])
def test_candidate_score_and_params(case, dataset):
    opset, indices, code_mode, input_coding, no_bias, want_score, want_params = case
    macro = MACRO.without_bias() if no_bias else MACRO
    net = build_network([decode_cell(i, OPSETS[opset]) for i in indices], macro)
    pixels = sample_batch(dataset, 4, 0).pixels
    result = score_candidate(net, pixels, LIF, WEIGHT_SEED, 1.0,
                             code_mode=code_mode, input_coding=input_coding)
    assert repr(result.value) == want_score
    assert count_network_params(net) == want_params


@pytest.mark.parametrize("carryover", sorted(SEARCHES))
def test_two_cell_search(carryover, dataset):
    cfg = SearchConfig(dataset=dataset, opset=OPSETS["2O"], num_cells=2,
                       macro=MACRO, seed=42, batch_size=4, lif=LIF,
                       carryover=carryover)
    found = search_memory_aware(cfg)
    indices, want_score, want_params = SEARCHES[carryover]
    assert found.per_cell_best_indices == indices
    assert repr(found.best_score) == want_score
    assert found.n_param == want_params
    assert found.evaluations_total == 128
