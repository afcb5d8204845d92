"""Action ladder selection and the flash cost model."""

import dataclasses
import itertools
import json
import random
import re

import io

import pytest
from hypothesis import given, settings, strategies as st

from wastekit.errors import WastekitError
from wastekit.hierarchy import (
    DEFAULT_ACTION_WEIGHTS,
    SELECTABLE_ACTIONS,
    CostModel,
    FeasibilityMask,
    HierarchyAction,
    dump_plan,
    estimate_cost,
    load_mask_rules,
    plan,
)
from wastekit.model import WasteCategory, is_relative

from conftest import make_record


def test_rank_order_is_total():
    ranks = [int(a) for a in SELECTABLE_ACTIONS]
    assert ranks == [0, 1, 2, 3, 4]
    assert HierarchyAction.REDUCE < HierarchyAction.REUSE < HierarchyAction.RECYCLE
    assert HierarchyAction.RECYCLE < HierarchyAction.RECOVER < HierarchyAction.DISPOSE


def test_out_of_band_markers_never_selectable():
    mask = FeasibilityMask(True, True, True, True)
    assert not mask.allows(HierarchyAction.ZERO_WASTE)
    assert not mask.allows(HierarchyAction.PHYSICAL_ELIMINATION)
    full = plan([(make_record(), WasteCategory.UNWANTED, mask)])
    assert full.entries[0].action is HierarchyAction.REDUCE


def test_dispose_always_feasible():
    assert FeasibilityMask().allows(HierarchyAction.DISPOSE)
    only_dispose = plan([(make_record(), WasteCategory.USED, FeasibilityMask())])
    assert only_dispose.entries[0].action is HierarchyAction.DISPOSE


def test_reuse_outranks_dispose():
    mask = FeasibilityMask(reuse_ok=True)
    chosen = plan([(make_record(), WasteCategory.USED, mask)]).entries[0].action
    assert chosen is HierarchyAction.REUSE


@pytest.mark.parametrize("bits", list(itertools.product([False, True], repeat=4)))
def test_all_sixteen_masks_match_min_rank_oracle(bits):
    reduce_ok, reuse_ok, recycle_ok, recover_ok = bits
    mask = FeasibilityMask(reduce_ok, reuse_ok, recycle_ok, recover_ok)

    # brute force: smallest rank whose bit is on (dispose forced true)
    allowed = {
        HierarchyAction.REDUCE: reduce_ok,
        HierarchyAction.REUSE: reuse_ok,
        HierarchyAction.RECYCLE: recycle_ok,
        HierarchyAction.RECOVER: recover_ok,
        HierarchyAction.DISPOSE: True,
    }
    expected = min((a for a, ok in allowed.items() if ok), key=int)

    chosen = plan([(make_record(), WasteCategory.UNWANTED, mask)]).entries[0].action
    assert chosen is expected


def test_relaxing_a_mask_never_worsens_rank():
    for bits in itertools.product([False, True], repeat=4):
        base = FeasibilityMask(*bits)
        base_action = plan([(make_record(), WasteCategory.USED, base)]).entries[0].action
        for i in range(4):
            if bits[i]:
                continue
            relaxed_bits = list(bits)
            relaxed_bits[i] = True
            relaxed = FeasibilityMask(*relaxed_bits)
            relaxed_action = plan([(make_record(), WasteCategory.USED, relaxed)]).entries[0].action
            assert int(relaxed_action) <= int(base_action)


def test_not_waste_entries_rejected():
    with pytest.raises(WastekitError, match="NotWaste"):
        plan([(make_record(), WasteCategory.NOT_WASTE, FeasibilityMask())])


def test_plan_covers_every_entry_and_totals_add_up():
    rng = random.Random(3)
    entries = []
    for i in range(50):
        mask = FeasibilityMask(*(rng.random() < 0.5 for _ in range(4)))
        entries.append((make_record(path=f"f{i}", size=rng.randrange(1, 1000)), WasteCategory.USED, mask))
    result = plan(entries)
    assert len(result.entries) == 50
    for action, (count, nbytes) in result.totals.items():
        matching = [e for e in result.entries if e.action is action]
        assert len(matching) == count
        assert sum(e.bytes_affected for e in matching) == nbytes


def test_reduce_touches_no_bytes():
    entry = plan([(make_record(size=500), WasteCategory.UNINTENTIONAL, FeasibilityMask(reduce_ok=True))]).entries[0]
    assert entry.action is HierarchyAction.REDUCE
    assert entry.bytes_affected == 0


_MASKS = st.builds(FeasibilityMask, st.booleans(), st.booleans(), st.booleans(), st.booleans())


def _ladder_search(mask):
    return next(a for a in SELECTABLE_ACTIONS if mask.allows(a))


@settings(max_examples=200, deadline=None)
@given(masks=st.lists(_MASKS, min_size=1, max_size=6), picks=st.lists(st.tuples(st.integers(0, 5), st.booleans())))
def test_choice_equals_per_entry_ladder_search(masks, picks):
    # A pick names one of the mask objects, shared by every entry that
    # picks it, or asks for an equal mask that is a distinct object.
    entries = []
    for i, (k, fresh) in enumerate(picks):
        mask = masks[k % len(masks)]
        if fresh:
            mask = FeasibilityMask(mask.reduce_ok, mask.reuse_ok, mask.recycle_ok, mask.recover_ok)
        entries.append((make_record(path=f"f{i}"), WasteCategory.USED, mask))
    assert [e.action for e in plan(entries).entries] == [_ladder_search(mask) for _, _, mask in entries]


@settings(max_examples=100, deadline=None)
@given(bits=st.lists(st.tuples(st.booleans(), st.booleans(), st.booleans(), st.booleans()), max_size=40))
def test_choice_holds_for_masks_freed_as_the_entries_are_read(bits):
    # Each mask dies once its entry is read unless the planner keeps it, so
    # a later mask may be allocated at the same address.
    entries = ((make_record(path=f"f{i}"), WasteCategory.USED, FeasibilityMask(*b)) for i, b in enumerate(bits))
    assert [e.action for e in plan(entries).entries] == [_ladder_search(FeasibilityMask(*b)) for b in bits]


def test_one_mask_object_shared_by_many_entries():
    mask = FeasibilityMask(reuse_ok=True, recover_ok=True)
    result = plan([(make_record(path=f"f{i}", size=i), WasteCategory.UNWANTED, mask) for i in range(1000)])
    assert {e.action for e in result.entries} == {HierarchyAction.REUSE}
    assert result.totals[HierarchyAction.REUSE] == (1000, sum(range(1000)))


# Characters `json.dumps` escapes, or spells as \\u escapes or pairs:
# quotes, backslashes, control characters, a line separator, non-ASCII,
# astral, and lone surrogates (which non-UTF-8 file names decode to).
_TEXT_CHARS = st.one_of(
    st.characters(),
    st.sampled_from(['"', "\\", "\n", "\x00", "\x1f", "\x7f", "\u2028", "\u00e9", "\U0001f600", "/"]),
    st.integers(0xD800, 0xDFFF).map(chr),
)
# Record paths: `FileRecord` refuses a path that is not relative, or that
# holds a surrogate pair (a high surrogate, then a low one).
_RECORD_PATHS = st.text(_TEXT_CHARS, min_size=1, max_size=12).filter(
    lambda path: is_relative(path) and not re.search("[\ud800-\udbff][\udc00-\udfff]", path)
)
_WASTE_CATEGORIES = [category for category in WasteCategory if category.is_waste()]
_BIG = st.integers(0, 10**30)


def _plan_as_dict(root, action_plan, cost, executed):
    """`plan`'s JSON object built as a dict, the way it used to be."""
    obj = {
        "root": root,
        "plan": {
            "entries": [
                {"path": path, "category": category.value, "action": action.label, "bytes_affected": nbytes}
                for path, category, action, nbytes in action_plan.entries
            ],
            "totals": {a.label: {"files": n, "bytes": b} for a, (n, b) in action_plan.totals.items()},
        },
        "cost": cost.to_json_obj(),
    }
    if executed is not None:
        obj["executed"] = executed
    return obj


def _assert_written_as_json_dumps(root, entries, executed, model=CostModel()):
    action_plan = plan(entries)
    cost = estimate_cost(action_plan, model)
    out = io.StringIO()
    dump_plan(out, root, action_plan, cost, executed)
    assert out.getvalue() == json.dumps(_plan_as_dict(root, action_plan, cost, executed), sort_keys=True) + "\n"


class TestPlanWriter:
    @settings(max_examples=300, deadline=None)
    @given(
        root=st.text(_TEXT_CHARS, max_size=8),
        entries=st.lists(
            st.tuples(
                st.builds(make_record, path=_RECORD_PATHS, size=_BIG),
                st.sampled_from(_WASTE_CATEGORIES),
                _MASKS,
            ),
            max_size=8,
        ),
        executed=st.one_of(
            st.none(),
            st.fixed_dictionaries(
                {
                    "deleted": _BIG,
                    "bytes_freed": _BIG,
                    "failures": st.lists(st.text(_TEXT_CHARS, max_size=16), max_size=3),
                }
            ),
        ),
        erase_block=st.integers(1, 10**30),
    )
    def test_equals_json_dumps_of_the_dict_form(self, root, entries, executed, erase_block):
        _assert_written_as_json_dumps(root, entries, executed, CostModel(erase_block_bytes=erase_block))

    def test_every_action_and_category(self):
        entries = [
            (make_record(path=f"{category.value}/{bits}", size=1 + i), category, FeasibilityMask(*bits))
            for i, (category, bits) in enumerate(
                itertools.product(_WASTE_CATEGORIES, itertools.product([False, True], repeat=4))
            )
        ]
        assert {e.action for e in plan(entries).entries} == set(SELECTABLE_ACTIONS)
        _assert_written_as_json_dumps("/r", entries, None)
        _assert_written_as_json_dumps("/r", entries, {"deleted": 1, "bytes_freed": 2, "failures": ["x \u00e9"]})

    def test_empty_plan(self):
        _assert_written_as_json_dumps("/r", [], None)


class TestCostModel:
    def test_empty_plan_is_free(self):
        empty = plan([])
        cost = estimate_cost(empty, CostModel())
        assert cost.bytes_erased == 0
        assert cost.erase_cycles_consumed == 0
        assert cost.endurance_fraction == 0.0
        assert cost.energy_units == 0.0

    def test_one_gib_disposed_on_256k_blocks(self):
        p = plan([(make_record(size=1 << 30), WasteCategory.UNWANTED, FeasibilityMask())])
        cost = estimate_cost(p, CostModel(erase_block_bytes=256 * 1024))
        assert cost.erase_cycles_consumed == 4096  # ceil(2^30 / 2^18)

    def test_ceil_division(self):
        p = plan([(make_record(size=256 * 1024 + 1), WasteCategory.UNWANTED, FeasibilityMask())])
        assert estimate_cost(p, CostModel(erase_block_bytes=256 * 1024)).erase_cycles_consumed == 2

    def test_mlc_vs_slc_ratio_is_exactly_100(self):
        p = plan([(make_record(size=10_000_000), WasteCategory.USED, FeasibilityMask())])
        mlc = estimate_cost(p, CostModel.for_device("MLC"))
        slc = estimate_cost(p, CostModel.for_device("SLC"))
        assert mlc.endurance_fraction / slc.endurance_fraction == 100.0

    def test_mlc_default_in_documented_range(self):
        endurance = CostModel.for_device("MLC").device_endurance_cycles
        assert 1000 <= endurance <= 10000
        assert CostModel.for_device("SLC").device_endurance_cycles == 100000

    def test_dispose_priced_above_recover_per_byte(self):
        assert DEFAULT_ACTION_WEIGHTS[HierarchyAction.DISPOSE] > DEFAULT_ACTION_WEIGHTS[HierarchyAction.RECOVER]

    @pytest.mark.parametrize(
        "fields",
        [{"erase_block_bytes": 1.5}, {"erase_block_bytes": True}, {"device_endurance_cycles": 1000.0},
         {"device_endurance_cycles": "1000"}],
    )
    def test_non_integer_sizes_rejected(self, fields):
        (name,) = fields
        with pytest.raises(WastekitError, match=f"^invalid cost model: {name} must be an integer, got "):
            CostModel(**fields)

    def test_zero_endurance_rejected(self):
        with pytest.raises(WastekitError, match="^invalid cost model: device_endurance_cycles must be >= 1, got 0$"):
            CostModel(device_endurance_cycles=0)

    @pytest.mark.parametrize("weight", ["x", float("nan"), -1.0, float("inf"), True, None])
    def test_action_weight_must_be_a_finite_number_not_below_zero(self, weight):
        # Once "x" failed inside `estimate_cost` with a TypeError, nan gave
        # energy NaN (which `dump_plan` wrote as the non-JSON token NaN),
        # and -1.0 gave negative energy.
        weights = dict(DEFAULT_ACTION_WEIGHTS) | {HierarchyAction.DISPOSE: weight}
        with pytest.raises(WastekitError) as info:
            CostModel(action_cost_weights=weights)
        assert str(info.value) == (
            f"invalid cost model: weight of Dispose must be a finite number >= 0, got {weight!r}"
        )

    @pytest.mark.parametrize("weights, kind", [([1], "list"), (None, "NoneType"), ("abc", "str")])
    def test_action_weights_must_be_a_dict(self, weights, kind):
        # Once each raised AttributeError: `list` object has no `items`.
        with pytest.raises(WastekitError) as info:
            CostModel(action_cost_weights=weights)
        assert str(info.value) == f"invalid cost model: action_cost_weights must be a dict, got {kind}"

    def test_action_weights_cannot_change_after_the_checks(self):
        # Once `m.action_cost_weights[DISPOSE] = nan` was accepted, as was a
        # change to the caller's dict, and `estimate_cost` gave energy nan.
        entries = [(make_record(path="a", size=3), WasteCategory.USED, FeasibilityMask())]
        weights = dict(DEFAULT_ACTION_WEIGHTS)
        model = CostModel(action_cost_weights=weights)
        weights[HierarchyAction.DISPOSE] = float("nan")
        with pytest.raises(TypeError):
            model.action_cost_weights[HierarchyAction.DISPOSE] = float("nan")
        with pytest.raises(TypeError):
            CostModel().action_cost_weights[HierarchyAction.DISPOSE] = float("nan")
        assert model.action_cost_weights == DEFAULT_ACTION_WEIGHTS
        assert estimate_cost(plan(entries), model).energy_units == 3.0
        assert CostModel().action_cost_weights == DEFAULT_ACTION_WEIGHTS

    def test_replace_keeps_the_weights(self):
        model = CostModel(action_cost_weights={HierarchyAction.DISPOSE: 2.0})
        assert dataclasses.replace(model) == model
        bigger = dataclasses.replace(model, erase_block_bytes=1 << 20)
        assert (bigger.erase_block_bytes, dict(bigger.action_cost_weights)) == (1 << 20, {HierarchyAction.DISPOSE: 2.0})

    @pytest.mark.parametrize("key", ["dispose", 4, None])
    def test_action_weight_keys_must_be_actions(self, key):
        # Once {"dispose": 1.0} was accepted, and `estimate_cost` then
        # priced Dispose at 0.
        with pytest.raises(WastekitError) as info:
            CostModel(action_cost_weights={HierarchyAction.REDUCE: 0.0, key: 1.0})
        assert str(info.value) == f"invalid cost model: weight key {key!r} is not a HierarchyAction"

    @pytest.mark.parametrize("weight", [0, 0.0, 2, 1e300])
    def test_action_weight_accepts_finite_numbers_not_below_zero(self, weight):
        entries = [(make_record(path="a", size=3), WasteCategory.USED, FeasibilityMask())]
        model = CostModel(action_cost_weights={HierarchyAction.DISPOSE: weight})
        assert estimate_cost(plan(entries), model).energy_units == 3 * weight

    def test_unknown_device_kind_rejected(self):
        with pytest.raises(WastekitError, match="device kind"):
            CostModel.for_device("QLC")

    def test_energy_weights_by_action(self):
        entries = [
            (make_record(path="a", size=100), WasteCategory.USED, FeasibilityMask()),  # Dispose
            (make_record(path="b", size=100), WasteCategory.USED, FeasibilityMask(recover_ok=True)),
        ]
        cost = estimate_cost(plan(entries), CostModel())
        assert cost.energy_units == pytest.approx(100 * 1.0 + 100 * 0.4)


def test_weight_scaling_never_changes_chosen_actions():
    """Cost is reporting-only: scaling every weight rescales energy but
    the per-entry decisions are untouched (they never see the model)."""
    rng = random.Random(17)
    entries = []
    for i in range(40):
        mask = FeasibilityMask(*(rng.random() < 0.4 for _ in range(4)))
        entries.append((make_record(path=f"f{i}", size=rng.randrange(1, 10_000)), WasteCategory.UNWANTED, mask))
    baseline = plan(entries)
    base_cost = estimate_cost(baseline, CostModel())
    for _ in range(1000):
        k = rng.uniform(0.01, 100.0)
        scaled_model = CostModel(action_cost_weights={a: w * k for a, w in DEFAULT_ACTION_WEIGHTS.items()})
        replanned = plan(entries)
        assert [e.action for e in replanned.entries] == [e.action for e in baseline.entries]
        scaled_cost = estimate_cost(replanned, scaled_model)
        assert scaled_cost.energy_units == pytest.approx(base_cost.energy_units * k, rel=1e-9)


class TestMaskRules:
    def test_first_match_wins_then_default(self, tmp_path):
        cfg = {
            "rules": [
                {"glob": "*.log", "recover_ok": True},
                {"glob": "cache/*", "reduce_ok": True, "recycle_ok": True},
            ],
            "default": {"reuse_ok": True},
        }
        p = tmp_path / "masks.json"
        p.write_text(json.dumps(cfg))
        masks = load_mask_rules(str(p))
        assert masks.mask_for("x.log") == FeasibilityMask(recover_ok=True)
        assert masks.mask_for("cache/z") == FeasibilityMask(reduce_ok=True, recycle_ok=True)
        assert masks.mask_for("other") == FeasibilityMask(reuse_ok=True)

    def test_unknown_keys_rejected(self, tmp_path):
        p = tmp_path / "masks.json"
        p.write_text(json.dumps({"rules": [{"glob": "*", "dispose_ok": False}]}))
        with pytest.raises(WastekitError, match="unknown mask keys"):
            load_mask_rules(str(p))

    def test_rule_without_glob_rejected(self, tmp_path):
        p = tmp_path / "masks.json"
        p.write_text(json.dumps({"rules": [{"reduce_ok": True}]}))
        with pytest.raises(WastekitError, match="glob"):
            load_mask_rules(str(p))
