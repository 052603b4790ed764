"""The CLI contract under arbitrary input: every run of every subcommand ends
in exit code 0, 1, 2 or 3, raises nothing and prints no traceback.

Flags are built from fragments that include inf, nan, negatives, 0, 2**64,
non-ASCII digits, empty strings and reversed windows; figure configs are
built the same way and written to a file.  Sizes are capped so that each
example stays fast: at most 50 terms, 5 trial factors per window, an
--m-cap of 100, and complete sums only over l up to 1009 or past the cap.
"""
import contextlib
import io
import json
import math

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from gaussfactor.cli import main

HUGE = str(2**64)
# tried in every flag; HUGE only where it cannot make the run long
ODD = ["", "nan", "inf", "-1", "0", "١٢"]


def pick(good, bad, weight=3):
    """Mostly a good value, so that most runs get past the first check."""
    return st.sampled_from([*good] * weight + [*bad])


# no built-in target: its default window would run --complete over l near 1.3e6
N = pick(["15", "10403"], ["1", HUGE, *ODD])
L = pick(["2", "3", "97", "1009"], ["10000001", HUGE, *ODD])
WINDOW = pick(
    ["2:6", "97:101", "1005:1009"],
    ["5:4", "1:3", "3", ":", "2:6:7", "10000001:10000005", f"{HUGE}:{2**64 + 4}",
     "١:٣", *ODD],
)
ORDER = pick(["2", "3", "5"], ["1", HUGE, *ODD])
SMALL = pick(["1", "3", "50"], ODD)  # truncation, count, --m-cap
M_MAX = pick(["9", "1000", str(2**64 - 1)], [HUGE, *ODD])
SEED = pick(["7", str(2**64 - 1)], [HUGE, *ODD])
THETA = pick(["0.0025", "1e-300"], ["3", *ODD])
EPSILON = pick(["0.01", "0.5", "1", "-0.5", "1e-300"], ["5", *ODD])
THRESHOLD = pick(["0.7", "0.2"], ["2", *ODD])
CASE = pick(
    ["10403:2:6", "15:2:6", "1689259081189:1299707:1299711"],
    [f"{10**309}:2:3", "10403:5:4", "10403:2", "15:2:3:4", "١٢:2:3", *ODD],
)
FORMAT = pick(["csv", "json"], ["xml", ""])
OUTPUT = st.sampled_from([None, None, None, "out.txt", "missing/out.txt", "."])


def flat(parts):
    return [a for p in parts for a in p]


def flag(name, values, required=False):
    """The flag with one drawn value; an optional flag is often left out."""
    given_ = values.map(lambda v: [name, v])
    return given_ if required else st.one_of(st.just([]), given_)


def command(name, *parts):
    return st.tuples(*parts).map(lambda ps: [name] + flat(ps))


STRATEGY = st.tuples(
    flag("--order", ORDER),
    st.one_of(
        flag("--truncation", SMALL, required=True),
        st.tuples(
            flag("--count", SMALL, True), flag("--m-max", M_MAX, True), flag("--seed", SEED)
        ).map(flat),
        st.just(["--complete"]),
        # any mix, mostly not exactly one strategy
        st.tuples(
            flag("--truncation", SMALL), flag("--count", SMALL), flag("--m-max", M_MAX),
            st.sampled_from([[], ["--complete"]]),
        ).map(flat),
    ),
).map(flat)
M_CAP = flag("--m-cap", SMALL, required=True)  # the default cap is slow
ARGV = st.one_of(
    command("scan", flag("--n", N, True), flag("--window", WINDOW, True), STRATEGY),
    command("classify", flag("--n", N, True), flag("--l", L, True), STRATEGY),
    command(
        "simulate", flag("--n", N, True), flag("--l", L), flag("--window", WINDOW),
        flag("--theta", THETA, True), STRATEGY,
    ),
    command(
        "suppression", flag("--epsilon", EPSILON, True), flag("--order", ORDER),
        flag("--threshold", THRESHOLD), M_CAP,
    ),
    command(
        "scaling", st.lists(CASE, max_size=2).map(lambda cs: flat(["--case", c] for c in cs)),
        flag("--order", ORDER), flag("--threshold", THRESHOLD), M_CAP,
    ),
    command("reproduce-figure", st.sampled_from([[k] for k in "12345"] + [["6"], []])),
)

# config values: JSON of the wrong kind rides along with the right one
BAD = [-1, 1.5, True, None, "3", math.inf, math.nan, [], {}]
COUNT = pick([0, 1, 3, 50], BAD, 6)  # truncations and counts stay small
BIG = pick([0, 7, 1000, 2**64 - 1], [2**64, *BAD], 6)  # seeds and m_max
CFG_ORDER = pick([2, 3, 5], [1, 2**64, *BAD], 6)
CFG_EPS = pick([0.01, 4e-05, 0.5, 1, -0.5, 1e-300], [0, 5, "0.01", *BAD], 6)
CFG_N = pick(["15", "10403", "1689259081189"], ["١٢", "-3", "", 15, None], 6)
CFG_WINDOW = pick(
    [[2, 6], [97, 101], [1299707, 1299711]],
    [[6, 2], [2, 4, 6], [2.0, 6], [True, 5], [1, 3], [2], "2:6", None,
     [10**7 + 1, 10**7 + 5]],
    6,
)
TRUNCATED = st.fixed_dictionaries({"order": CFG_ORDER, "truncation": COUNT})
FIGURE = {
    "1": st.fixed_dictionaries(
        {"order": CFG_ORDER, "epsilons": st.lists(CFG_EPS, max_size=3),
         "max_truncation": COUNT}
    ),
    "2": st.fixed_dictionaries(
        {"epsilon": CFG_EPS, "order": CFG_ORDER, "truncations": st.lists(COUNT, max_size=3),
         "random_count": COUNT, "random_m_max": BIG, "random_seed": BIG}
    ),
    "3": st.fixed_dictionaries(
        {"N": CFG_N, "window": CFG_WINDOW, "upper": TRUNCATED, "lower": TRUNCATED,
         "middle": st.fixed_dictionaries(
             {"order": CFG_ORDER, "count": COUNT, "m_max": BIG, "seed": BIG})}
    ),
    "4": st.fixed_dictionaries(
        {"N": CFG_N, "window": CFG_WINDOW, "count": COUNT, "m_max": BIG, "seed": BIG}
    ),
    "5": st.fixed_dictionaries(
        {"epsilon": CFG_EPS, "orders": st.lists(CFG_ORDER, max_size=3),
         "max_truncation": COUNT}
    ),
}
CONFIG = st.sampled_from(sorted(FIGURE)).flatmap(
    lambda k: st.tuples(st.just(k), st.one_of(
        FIGURE[k].map(lambda cfg: {k: cfg}), FIGURE[k].map(lambda cfg: {k: cfg}),
        st.sampled_from([[], 5, "text", {k: 5}]),
    ))
)

CONTRACT = settings(
    derandomize=True, deadline=None, max_examples=200,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


def check_contract(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2, 3), (argv, code, err.getvalue())
    assert "Traceback" not in err.getvalue(), (argv, err.getvalue())


@CONTRACT
@given(argv=ARGV, fmt=flag("--format", FORMAT), output=OUTPUT)
def test_flags_never_escape_the_exit_codes(tmp_path, argv, fmt, output):
    argv = argv + fmt
    if output is not None:
        argv += ["--output", str(tmp_path / output)]
    check_contract(argv)


@CONTRACT
@given(figure_config=CONFIG)
def test_figure_configs_never_escape_the_exit_codes(tmp_path, figure_config):
    figure, config = figure_config
    path = tmp_path / "figures.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    check_contract(["reproduce-figure", figure, "--config", str(path)])
