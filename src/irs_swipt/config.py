"""Key/value config files for scenarios and experiments.

Format: one `key = value` pair per line, `#` starts a comment, blank lines
ignored.  Keys are case-insensitive.  Scenario keys mirror ScenarioConfig
fields (lowercase); `sigma2_dbm` may replace `sigma2_w` (so -70 dBm parses to
1e-10 W).  Experiment keys: mode, methods (comma list), sweep (comma list of
numbers), seeds_per_point.  A key may be given once; `sigma2_dbm` and
`sigma2_w` count as one key.

Example reproducing the headline setup::

    m = 4
    n = 50
    ps_w = 15
    sigma2_dbm = -70
    zeta = 0.5
    r0 = 1.0
    mode = sweep_sr
    methods = sdr, sca, random_phase, no_irs
    sweep = 1, 2, 3, 4, 5
    seeds_per_point = 50
"""

from dataclasses import fields

from .channel import ScenarioConfig, dbm_to_watt
from .errors import InvalidInput

_SCENARIO_FIELDS = {f.name.lower(): f for f in fields(ScenarioConfig)}


def _parse_lines(text):
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise InvalidInput(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        yield lineno, key.strip().lower(), value.strip()


def parse_config(path):
    """Read a config file; returns (ScenarioConfig, experiment-kwargs dict)."""
    with open(path) as fh:
        text = fh.read()
    return parse_config_text(text)


def _convert(convert, text, lineno, key):
    try:
        return convert(text)
    except ValueError:
        raise InvalidInput(f"line {lineno}: {key}: {text.strip()!r} is not "
                           f"a valid {convert.__name__}") from None


def parse_config_text(text):
    scen = {}
    exp = {}
    first_line = {}
    for lineno, key, value in _parse_lines(text):
        first = first_line.setdefault("sigma2_w" if key == "sigma2_dbm" else key, lineno)
        if first != lineno:
            raise InvalidInput(f"line {lineno}: {key!r} repeats the key of line {first}")
        if key == "sigma2_dbm":
            dbm = _convert(float, value, lineno, key)
            try:
                scen["sigma2_w"] = dbm_to_watt(dbm)
            except OverflowError:
                raise InvalidInput(f"line {lineno}: {key}: {dbm:g} dBm overflows in watts") from None
        elif key in _SCENARIO_FIELDS:
            f = _SCENARIO_FIELDS[key]
            scen[f.name] = _convert(f.type, value, lineno, key)  # int, float or str
        elif key == "mode":
            exp["mode"] = value
        elif key == "methods":
            exp["methods"] = tuple(m.strip() for m in value.split(",") if m.strip())
        elif key == "sweep":
            exp["sweep"] = tuple(_convert(float, v, lineno, key) for v in value.split(","))
        elif key == "seeds_per_point":
            exp["seeds_per_point"] = _convert(int, value, lineno, key)
        else:
            raise InvalidInput(f"line {lineno}: unknown config key {key!r}")
    return ScenarioConfig(**scen), exp
