"""Core taxonomy: f-lifetime, rule parsing, and the classification ladder."""

import hashlib
import json
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from wastekit.errors import RuleSetError, WastekitError
from wastekit.hierarchy import FeasibilityMask, MaskRules
from wastekit.model import (
    FileKind,
    FileRecord,
    GlobSet,
    RuleSet,
    WasteCategory,
    classify,
    f_lifetime,
    load_rules,
    ruleset_from_json_obj,
)

from conftest import make_record
from naive_glob import first_match, naive_classify, path_matches


class TestFLifetime:
    def test_atime_equals_mtime_is_zero(self):
        assert f_lifetime(make_record(mtime=100, atime=100)) == 0

    def test_direct_subtraction(self):
        assert f_lifetime(make_record(mtime=100, atime=150)) == 50

    def test_negative_delta_clamps(self):
        assert f_lifetime(make_record(mtime=150, atime=100)) == 0

    @pytest.mark.parametrize("kind", [FileKind.DIRECTORY, FileKind.SYMLINK, FileKind.OTHER])
    def test_undefined_for_non_regular(self, kind):
        with pytest.raises(WastekitError, match="f-lifetime undefined"):
            f_lifetime(make_record(kind=kind))

    def test_random_pairs_against_formula(self):
        # Brute-force oracle over random timestamp pairs: the value is
        # max(0, a - m) and zero exactly when a <= m.
        rng = random.Random(0xF11FE)
        for _ in range(10_000):
            m = rng.randrange(0, 2**31)
            a = rng.randrange(0, 2**31)
            rec = make_record(mtime=m, atime=a)
            val = f_lifetime(rec)
            assert val == max(0, a - m)
            assert (val == 0) == (a <= m)

    @given(st.integers(0, 2**40), st.integers(0, 2**40))
    def test_clamp_property(self, m, a):
        assert f_lifetime(make_record(mtime=m, atime=a)) >= 0


class TestPathMatches:
    def test_extension_glob_matches_nested_path(self):
        assert GlobSet(["*.aux"]).matches("docs/paper.aux")

    def test_directory_glob_is_anchored(self):
        assert GlobSet(["build/*"]).matches("build/x.o")
        assert not GlobSet(["build/*"]).matches("src/build/x.o")

    def test_case_sensitive(self):
        assert not GlobSet(["*.tmp"]).matches("X.TMP")


# Small alphabets, so random paths and patterns match each other often.
_GLOB_TOKENS = ["a", "b", ".", "/", "*", "?", "[ab]", "[!a]", "[!/]", "[", "]"]
_globs = st.lists(st.sampled_from(_GLOB_TOKENS), min_size=1, max_size=6).map("".join)
_groups = st.lists(_globs, max_size=4)
_paths = st.lists(st.text(alphabet="ab.", min_size=1, max_size=4), min_size=1, max_size=4).map("/".join)
_DIGESTS = [hashlib.sha256(bytes([i])).hexdigest() for i in range(3)]
NOW = 10_000_000_000
# (mtime, atime) against NOW and the default 30-day idle threshold.
_IDLE = (NOW - 10**8, NOW - 10**7)  # read once, then idle far beyond it
_TIMES = st.sampled_from(
    [
        (NOW - 10**8, NOW - 10**8),  # never read
        (NOW - 10**8, NOW - 60),  # read a minute ago
        _IDLE,
        (NOW - 10**7, NOW - 10**8),  # atime before mtime (copied timestamps)
    ]
)


class TestGlobEngineAgainstOracle:
    @settings(max_examples=300, deadline=None)
    @given(_groups, st.lists(_paths, min_size=1, max_size=8))
    @example(["b", "a/*"], ["a/b"])  # the basename hit comes first: the answer is 0, not 1
    def test_any_and_first_match(self, globs, paths):
        engine = GlobSet(globs)
        for path in paths:
            assert engine.matches(path) == any(path_matches(path, g) for g in globs)
            assert engine.first(path) == first_match(path, globs)

    @settings(max_examples=300, deadline=None)
    @given(
        _groups, _groups, _groups,
        st.lists(st.tuples(_globs, st.sampled_from(_DIGESTS)), max_size=3),
        st.lists(
            st.tuples(_paths, st.sampled_from(list(FileKind)), st.sampled_from(_DIGESTS + [None]), _TIMES),
            min_size=1,
        ),
    )
    # Two matching checks expect different digests: Degraded whatever the content.
    @example([], [], [], [("*.b", _DIGESTS[0]), ("a*", _DIGESTS[1])], [("a.b", FileKind.REGULAR, _DIGESTS[0], _IDLE)])
    # An intact file under a degraded check falls through to an unintentional glob.
    @example([], ["*.b"], [], [("a*", _DIGESTS[0])], [("a.b", FileKind.REGULAR, _DIGESTS[0], _IDLE)])
    # The basename hits a degraded check and the full path an unwanted glob:
    # the check comes first in precedence, so the mismatch makes it Degraded.
    @example([], [], ["a/*"], [("b", _DIGESTS[0])], [("a/b", FileKind.REGULAR, _DIGESTS[1], _IDLE)])
    def test_classify_groups(self, not_waste, unintentional, unwanted, checks, records):
        rules = RuleSet(
            not_waste_globs=tuple(not_waste),
            unintentional_globs=tuple(unintentional),
            unwanted_globs=tuple(unwanted),
            degraded_checks=tuple(checks),
        )
        for path, kind, digest, (mtime, atime) in records:
            rec = make_record(path=path, kind=kind, mtime=mtime, atime=atime)
            calls = {"fast": 0, "naive": 0}

            def provider(p, side, digest=digest):
                calls[side] += 1
                return digest

            got = classify(rec, rules, NOW, lambda p: provider(p, "fast"))
            assert got is naive_classify(rec, rules, NOW, lambda p: provider(p, "naive"))
            # Each content read is a real file read: the count must not move.
            assert calls["fast"] == calls["naive"]

    @settings(max_examples=300, deadline=None)
    @given(_groups, st.lists(_paths, min_size=1, max_size=8))
    @example(["b", "a/*"], ["a/b"])
    def test_mask_first_match(self, globs, paths):
        # Equal masks are distinct objects, so identity tells which rule won.
        rules = tuple((g, FeasibilityMask()) for g in globs)
        masks = MaskRules(rules=rules, default=FeasibilityMask())
        for path in paths:
            index = first_match(path, globs)
            assert masks.mask_for(path) is (masks.default if index is None else rules[index][1])


class TestRuleSet:
    def test_rejects_empty_pattern(self):
        with pytest.raises(RuleSetError):
            RuleSet(unintentional_globs=("",))

    def test_rejects_nonpositive_threshold(self):
        with pytest.raises(RuleSetError):
            RuleSet(used_threshold_secs=0)

    def test_rejects_bad_digest(self):
        with pytest.raises(RuleSetError):
            RuleSet(degraded_checks=(("*.bin", "XYZ"),))

    def test_rejects_unknown_keys(self):
        with pytest.raises(RuleSetError, match="unknown rules keys"):
            ruleset_from_json_obj({"unintentional_glob": ["*.tmp"]})

    def test_load_from_file(self, tmp_path):
        digest = hashlib.sha256(b"golden").hexdigest()
        cfg = {
            "not_waste_globs": ["keep/*"],
            "unintentional_globs": ["*.aux"],
            "unwanted_globs": ["*.spam"],
            "degraded_checks": [{"glob": "*.bin", "sha256": digest}],
            "used_threshold_secs": 3600,
        }
        p = tmp_path / "rules.json"
        p.write_text(json.dumps(cfg))
        rules = load_rules(str(p))
        assert rules.degraded_checks == (("*.bin", digest),)
        assert rules.used_threshold_secs == 3600

    def test_load_missing_file(self):
        with pytest.raises(RuleSetError):
            load_rules("/nonexistent/rules.json")


class TestClassify:
    def test_latex_byproduct_is_unintentional(self, basic_rules):
        rec = make_record(path="paper.aux")
        assert classify(rec, basic_rules, NOW) is WasteCategory.UNINTENTIONAL

    def test_allowlist_beats_unintentional(self):
        rules = RuleSet(not_waste_globs=("*.aux",), unintentional_globs=("*.aux",))
        assert classify(make_record(path="paper.aux"), rules, NOW) is WasteCategory.NOT_WASTE

    def test_used_when_read_then_idle(self, basic_rules):
        # accessed an hour after writing, then idle for 90 days
        atime = NOW - 90 * 86400
        rec = make_record(path="input.csv", mtime=atime - 3600, atime=atime)
        assert classify(rec, basic_rules, NOW) is WasteCategory.USED

    def test_never_read_is_not_used(self, basic_rules):
        rec = make_record(path="input.csv", mtime=NOW - 10**8, atime=NOW - 10**8)
        assert classify(rec, basic_rules, NOW) is WasteCategory.NOT_WASTE

    def test_recently_read_is_not_used(self, basic_rules):
        rec = make_record(path="input.csv", mtime=NOW - 10**8, atime=NOW - 60)
        assert classify(rec, basic_rules, NOW) is WasteCategory.NOT_WASTE

    def test_degraded_on_digest_mismatch(self):
        rules = RuleSet(degraded_checks=(("*.bin", hashlib.sha256(b"good").hexdigest()),))
        rec = make_record(path="data.bin")
        got = classify(rec, rules, NOW, digest_provider=lambda p: hashlib.sha256(b"bad").hexdigest())
        assert got is WasteCategory.DEGRADED

    def test_intact_digest_falls_through(self):
        digest = hashlib.sha256(b"good").hexdigest()
        rules = RuleSet(degraded_checks=(("*.bin", digest),))
        got = classify(make_record(path="data.bin"), rules, NOW, digest_provider=lambda p: digest)
        assert got is WasteCategory.NOT_WASTE

    def test_unreadable_counts_degraded(self):
        rules = RuleSet(degraded_checks=(("*.bin", hashlib.sha256(b"x").hexdigest()),))
        got = classify(make_record(path="data.bin"), rules, NOW, digest_provider=lambda p: None)
        assert got is WasteCategory.DEGRADED

    def test_degraded_check_skips_directories(self):
        rules = RuleSet(degraded_checks=(("*", hashlib.sha256(b"x").hexdigest()),))
        rec = make_record(path="somedir", kind=FileKind.DIRECTORY)
        # must not attempt to hash a directory; falls through to NotWaste
        assert classify(rec, rules, NOW, digest_provider=lambda p: pytest.fail("hashed a dir")) is WasteCategory.NOT_WASTE

    def test_totality_over_kinds(self, basic_rules):
        for kind in FileKind:
            rec = make_record(path="anything.xyz", kind=kind)
            assert classify(rec, basic_rules, NOW) in WasteCategory


def _expected_by_precedence(not_waste, degraded, unintentional, unwanted, used):
    """Independent hand-evaluation of the precedence ladder."""
    if not_waste:
        return WasteCategory.NOT_WASTE
    if degraded:
        return WasteCategory.DEGRADED
    if unintentional:
        return WasteCategory.UNINTENTIONAL
    if unwanted:
        return WasteCategory.UNWANTED
    if used:
        return WasteCategory.USED
    return WasteCategory.NOT_WASTE


@pytest.mark.parametrize("mask", range(32))
def test_precedence_exhaustive(mask):
    """All 2^5 combinations of matching rule groups resolve to the
    highest-precedence match."""
    not_waste = bool(mask & 1)
    degraded = bool(mask & 2)
    unintentional = bool(mask & 4)
    unwanted = bool(mask & 8)
    used = bool(mask & 16)

    path = "work/item.dat"
    wrong = hashlib.sha256(b"other").hexdigest()
    right = hashlib.sha256(b"content").hexdigest()
    rules = RuleSet(
        not_waste_globs=("*.dat",) if not_waste else ("*.nomatch",),
        degraded_checks=((("*.dat", wrong),) if degraded else (("*.dat", right),)),
        unintentional_globs=("work/*",) if unintentional else (),
        unwanted_globs=("item.*",) if unwanted else (),
        used_threshold_secs=30 * 86400,
    )
    if used:
        rec = make_record(path=path, mtime=NOW - 10**8, atime=NOW - 10**7)
    else:
        rec = make_record(path=path, mtime=NOW - 10**8, atime=NOW - 10**8)

    got = classify(rec, rules, NOW, digest_provider=lambda p: right)
    assert got is _expected_by_precedence(not_waste, degraded, unintentional, unwanted, used)


class TestFileRecord:
    def test_json_round_trip(self):
        rec = make_record(path="a/b.c", size=7, mtime=1, atime=2, allocated_bytes=4096)
        assert FileRecord.from_json_obj(rec.to_json_obj()) == rec

    def test_rejects_negative_size(self):
        with pytest.raises(ValueError):
            make_record(size=-1)

    def test_malformed_json_object(self):
        with pytest.raises(WastekitError):
            FileRecord.from_json_obj({"path": "x"})
