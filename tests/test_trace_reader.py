"""The shared line-trace reader against the line-at-a-time oracle, for
landfill traces and penalty workloads, from lists of lines and from
files with each kind of line end."""

import re
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from wastekit import landfill
from wastekit.errors import TraceError, read_int
from wastekit.landfill import load_trace, parse_trace
from wastekit.penalty import load_workload, parse_workload

from naive_trace import naive_load, naive_parse_trace, naive_parse_workload

LONG = "9" * 5000  # past Python's digit limit for str-to-int

# Between fields: any whitespace that `str.split` cuts at, also the form
# feed, U+0085 and U+2028 that `str.splitlines` would take as line ends.
_SPACE = st.sampled_from([" ", "  ", "\t", "\x0b", "\x0c", "\x1c", "\x85", " ", " "])
_INT = st.one_of(
    st.integers(-3, 10**6).map(str),
    st.sampled_from([
        "+7", "-0", "007", "1_000", "1__0", "_1", "1_", "٣", "१२", "1_٣", "0x10", "1.0",
        "1e3", "½", "ten", LONG, f"-{LONG}", f"+{LONG}", f"{LONG[:2000]}_{LONG[:2500]}", f"{LONG}x", "٣" * 5000,
    ]),
)
_NAME = st.text(st.sampled_from("ab#_1é٣ß"), min_size=1, max_size=3)
_FRACTION = st.sampled_from(["0", "1", "0.5", "1/2", "3/4", "0.25", "1.5", "-0.1", "1e-3", "x", "2/0", "+1", "1_0"])
_VERB = st.sampled_from(["PUT", "put", "Put", "GET", "get", "ADV", "adv", "DEL", "#PUT", "straße"])


def _line(fields: list[str], space: list[str]) -> str:
    """The fields joined by the drawn spaces, with leading and trailing ones."""
    return "".join(s + f for s, f in zip(space, fields)) + space[-1]


@st.composite
def _lines(draw, good_fields, any_fields):
    """Lines of mostly good fields, blank and `#` lines, and in about half
    the examples one line of arbitrary fields somewhere among them."""
    def line(fields_strategy):
        fields = draw(fields_strategy)
        if draw(st.booleans()):  # spaced as a writer spaces it, the form `load_trace` matches in runs
            return " ".join(fields)
        return _line(fields, draw(st.lists(_SPACE, min_size=len(fields) + 1, max_size=len(fields) + 1)))

    extra = st.one_of(st.just([]), st.tuples(st.just("#"), _NAME).map(lambda t: ["".join(t)]))
    lines = [line(st.one_of(good_fields, good_fields, extra)) for _ in range(draw(st.integers(0, 6)))]
    if draw(st.booleans()):
        lines.insert(draw(st.integers(0, len(lines))), line(any_fields))
    return lines


_GOOD_OP = st.one_of(
    st.tuples(st.sampled_from(["PUT", "put"]), _NAME, st.integers(0, 10**4).map(str)).map(list),
    st.tuples(st.sampled_from(["GET", "Get"]), _NAME).map(list),
    st.tuples(st.sampled_from(["ADV", "adv"]), st.integers(1, 9).map(str)).map(list),
)
_ANY_OP = st.one_of(
    st.tuples(_VERB, st.lists(st.one_of(_NAME, _INT), max_size=3)).map(lambda t: [t[0], *t[1]]),
    st.tuples(st.sampled_from(["PUT", "put"]), _NAME, _INT).map(list),
    st.tuples(st.sampled_from(["ADV", "adv"]), _INT).map(list),
)
_GOOD_EVENT = st.tuples(st.integers(0, 50).map(str), _NAME, st.integers(0, 10**4).map(str),
                        st.sampled_from(["0", "1", "0.5", "1/2", "3/4"])).map(list)
_ANY_EVENT = st.one_of(
    st.lists(st.one_of(_INT, _NAME, _FRACTION), max_size=5),
    st.tuples(_INT, _NAME, _INT, _FRACTION).map(list),
)

# An integer field's message, before and after the shared integer rule.
_OLD_INT = re.compile(r"invalid literal for int\(\) with base 10: .*|Exceeds the limit .*|"
                      r"(size|n|tick|requested_bytes) must be >= [01]", re.DOTALL)
_NEW_INT = re.compile(r"(size|n|tick|requested_bytes) (must be an integer, got .*|must be >= [01], got -?\d+|"
                      r"holds a number too long to read)", re.DOTALL)


def _outcome(parse, arg):
    try:
        return parse(arg), None
    except TraceError as exc:
        return None, str(exc)


def _assert_same_meaning(want, got):
    """Equal results, or errors on the same line whose messages differ only
    for an integer field."""
    (want_value, want_error), (got_value, got_error) = want, got
    assert got_value == want_value
    assert (got_error is None) == (want_error is None), (want_error, got_error)
    if want_error is not None:
        want_where, want_message = want_error.split(": ", 1)
        got_where, got_message = got_error.split(": ", 1)
        assert got_where == want_where
        assert "set_int_max_str_digits" not in got_message
        if got_message != want_message:
            assert _OLD_INT.fullmatch(want_message) and _NEW_INT.fullmatch(got_message), (want_message, got_message)


_FORMATS = {
    "trace": (_GOOD_OP, _ANY_OP, naive_parse_trace, parse_trace, lambda p: list(load_trace(p))),
    "workload": (_GOOD_EVENT, _ANY_EVENT, naive_parse_workload, parse_workload, load_workload),
}


@pytest.mark.parametrize("kind", sorted(_FORMATS))
@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_matches_oracle(tmp_path, kind, data):
    good, any_fields, naive_parse, parse, load = _FORMATS[kind]
    lines = data.draw(_lines(good, any_fields))
    _assert_same_meaning(_outcome(naive_parse, lines), _outcome(parse, lines))
    # From a file, lines end wherever the file object cuts them: at "\n",
    # "\r\n" and "\r", not at the other line ends of `str.splitlines`.
    path = tmp_path / "in.trace"
    ends = data.draw(st.lists(st.sampled_from(["\n", "\r\n", "\r"]), min_size=len(lines), max_size=len(lines)))
    path.write_text("".join(line + end for line, end in zip(lines, ends)), encoding="utf-8", newline="")
    want = _outcome(lambda p: naive_load(naive_parse, p), path)
    _assert_same_meaning(want, _outcome(load, path))
    if kind == "trace":
        # `load_trace` checks the file in blocks: blocks of a few characters
        # end inside lines and between "\r" and "\n".
        with mock.patch.object(landfill, "_BLOCK", data.draw(st.integers(1, 5))):
            _assert_same_meaning(want, _outcome(load, path))
            # The check finds every error before an op is read, and counts the ops.
            checked, error = _outcome(load_trace, path)
            if want[1] is None:
                assert len(checked) == len(want[0])
            else:
                _assert_same_meaning(want, (None, error))


@pytest.mark.parametrize(
    "line",
    [
        "GET a", "GET a b", "GET", "PUT a 0", "PUT a", "PUT a 1 2", "PUT a -1", "put a 1", "DEL a",
        f"PUT a {'9' * 18}", f"PUT a {'9' * 19}", f"PUT a {LONG}",
        "ADV 1", "ADV 0", "ADV 00", "ADV -1", f"ADV {'0' * 17}1", f"ADV {'0' * 20}1", f"ADV {'9' * 19}", f"ADV {LONG}",
    ],
)
@pytest.mark.parametrize("block", [1, 3, None])
def test_load_trace_checks_as_parse_trace_reads(tmp_path, line, block):
    """Lines spaced as a writer spaces them, at the edges of the form that
    `load_trace` passes over in runs: it must refuse or count each as
    `parse_trace` reads it, before any op is read."""
    lines = ["# first", "GET k", line, "PUT k 1"]
    path = tmp_path / "in.trace"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    want_ops, want_error = _outcome(parse_trace, lines)
    with mock.patch.object(landfill, "_BLOCK", block or landfill._BLOCK):
        checked, error = _outcome(load_trace, path)
    assert error == want_error
    if error is None:
        assert len(checked) == len(want_ops)
        assert list(checked) == want_ops


@pytest.mark.parametrize(
    "field, message",
    [
        ("x", "size must be an integer, got 'x'"),
        ("-1", "size must be >= 0, got -1"),
        ("1.0", "size must be an integer, got '1.0'"),
        (LONG, "size holds a number too long to read"),
        (f"-{LONG}", "size holds a number too long to read"),
        (f"{LONG[:2000]}_{LONG}", "size holds a number too long to read"),
        ("٣" * 5000, "size holds a number too long to read"),
        (f"{LONG}x", f"size must be an integer, got '{LONG[:78]}…"),
        ("x" * 78, f"size must be an integer, got '{'x' * 78}'"),
        ("x" * 79, f"size must be an integer, got '{'x' * 78}…"),
    ],
    ids=["word", "negative", "decimal", "long", "long-negative", "long-underscore", "long-arabic-indic", "long-then-x",
         "80-characters", "81-characters"],
)
def test_read_int_rejects(field, message):
    with pytest.raises(TraceError) as info:
        read_int(field, "size", 0)
    assert str(info.value) == message
