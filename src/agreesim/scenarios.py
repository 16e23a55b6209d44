"""Scenario configuration: schema, validation, files, builtin library.

A scenario is a plain JSON document (schema version 1) describing the
population, protocol parameters, arena and radio range, mobility model,
adversary strategy, initial values and positions, and the master seed.
The builtin library bundles the constructions used by the acceptance
suite, from a well-connected converging baseline to adversarial and
partitioned setups that must provably stay stuck.
"""

from __future__ import annotations

import json
from collections.abc import Callable
from dataclasses import MISSING, dataclass, field, asdict
from pathlib import Path

from .adversary import ExtremeSplit, FixedValue, RandomLegal, ScriptedTable, Silent, Strategy
from .analysis import check_delta
from .dynamics import Arena, MobilityModel, RandomWaypoint, Scripted, Stationary, TeleportRandom
from .errors import ConfigError, decimal_key, malformed, read_json, require_types
from .protocol import ProtocolParams

SCENARIO_SCHEMA = 1


@dataclass
class ScenarioConfig:
    name: str
    n: int
    f: int
    r_c: int
    epsilon: float
    max_rounds: int | None = None
    delta: float | None = None
    arena: tuple[float, float] = (10.0, 10.0)
    radius: float = 1.0
    loss_rate: float = 0.0
    mobility: dict = field(default_factory=lambda: {"model": "stationary"})
    adversary: dict = field(default_factory=lambda: {"strategy": "silent", "byz_set": []})
    initial_values: dict = field(default_factory=lambda: {"mode": "uniform", "range": [0.0, 1.0]})
    initial_positions: dict = field(default_factory=lambda: {"mode": "uniform"})
    seed: int = 0

    @property
    def byz_set(self) -> set[int]:
        return set(self.adversary.get("byz_set", []))

    @property
    def correct_ids(self) -> list[int]:
        return sorted(set(range(self.n)) - self.byz_set)

    @property
    def effective_delta(self) -> float:
        return check_delta(self.delta, self.epsilon)

    @property
    def effective_max_rounds(self) -> int:
        return 100 * self.r_c * self.n if self.max_rounds is None else self.max_rounds

    def validate(self) -> tuple[ProtocolParams, MobilityModel, Strategy, Callable, Callable]:
        """Check every field once, building the run's params, mobility and faulty behavior.

        The initial positions and values come last, each a function of its
        random stream: checked here, drawn by the run.
        """
        with malformed(ConfigError, "malformed scenario"):
            for what, values in (("epsilon", [self.epsilon]), ("radius", [self.radius]),
                                 ("loss_rate", [self.loss_rate]), ("arena", self.arena),
                                 ("delta", [] if self.delta is None else [self.delta])):
                require_types({int, float}, what, values)
            if type(self.seed) is not int or type(self.name) is not str:
                raise ConfigError("seed must be an integer and name a string")
            params = ProtocolParams(n=self.n, f=self.f, r_c=self.r_c, epsilon=self.epsilon)
            if type(self.effective_max_rounds) is not int or self.effective_max_rounds < 1:
                raise ConfigError(f"max_rounds must be an integer >= 1, got {self.max_rounds!r}")
            check_delta(self.delta, self.epsilon)
            if not self.radius > 0:
                raise ConfigError(f"radius must be > 0, got {self.radius}")
            if not 0.0 <= self.loss_rate <= 1.0:
                raise ConfigError(f"loss_rate must be in [0,1], got {self.loss_rate}")
            arena = Arena(*self.arena)
            return (params, build_mobility(self, arena), build_adversary(self),
                    _initial_positions(self, arena), _initial_values(self))

    def to_dict(self) -> dict:
        out = asdict(self)
        out["schema"] = SCENARIO_SCHEMA
        out["arena"] = list(self.arena)
        return out

    @staticmethod
    def from_dict(obj: dict) -> "ScenarioConfig":
        if not isinstance(obj, dict):
            raise ConfigError(f"a scenario must be a JSON object, got {type(obj).__name__}")
        data = dict(obj)
        schema = data.pop("schema", SCENARIO_SCHEMA)
        if type(schema) is not int or schema != SCENARIO_SCHEMA:
            raise ConfigError(f"unsupported scenario schema {schema!r}")
        fields = ScenarioConfig.__dataclass_fields__.values()
        unknown = set(data) - {f.name for f in fields}
        if unknown:
            raise ConfigError(f"unknown scenario fields {sorted(unknown)}")
        for f in fields:
            if f.default is MISSING and f.default_factory is MISSING and f.name not in data:
                raise ConfigError(f"missing scenario field {f.name!r}")
        with malformed(ConfigError, "malformed scenario"):
            if "arena" in data:
                data["arena"] = tuple(data["arena"])
            return ScenarioConfig(**data)


# For each spec: the key that picks its kind and, for each kind, the keys it
# takes besides it as (shape, default). A default of None makes the key
# required. A shape is "number"; a count of numbers; "values", one per correct
# node; a "range" [lo, hi] with lo <= hi, or a "positive range" with 0 < lo
# too; "faulty", the faulty set every adversary holds; or (form, inner): a
# "list", or an object keyed by "node" id or by "round" (from 1, or "*"), of
# inners. Each array or object, at any depth, must be one.
_FAULTY = {"byz_set": ("faulty", [])}
SPEC_KEYS = {
    "mobility": ("model", {
        "stationary": {}, "teleport-random": {},
        "random-waypoint": {"speed": ("positive range", [0.5, 2.0])},
        "scripted": {"waypoints": (("node", ("list", 2)), None)}}),
    "adversary": ("strategy", {
        "silent": _FAULTY,
        "fixed-value": {**_FAULTY, "value": ("number", None)},
        "extreme-split": {**_FAULTY, "v_hi": ("number", None), "v_lo": ("number", None)},
        "random-legal": {**_FAULTY, "range": ("range", [0.0, 1.0])},
        "scripted": {**_FAULTY, "table": (("round", ("node", "number")), None)}}),
    "initial_values": ("mode", {"explicit": {"values": ("values", None)},
                                "uniform": {"range": ("range", [0.0, 1.0])}}),
    "initial_positions": ("mode", {"explicit": {"coords": (("node", 2), None)}, "uniform": {}}),
}


def _read(config: ScenarioConfig, what: str, shape, raw):
    """``raw`` read as ``shape`` (see SPEC_KEYS), each error naming it ``what``."""
    if shape == "number":
        require_types({int, float}, what, [raw])
        return float(raw)
    form, inner = shape if isinstance(shape, tuple) else ("list", None)
    _expect(what, raw, "object" if form in ("node", "round") else "array")
    if shape == "faulty":
        bad = [i for i in raw if type(i) is not int or not 0 <= i < config.n]
        if bad:
            raise ConfigError(f"faulty ids {bad} are not integers in 0..{config.n - 1}")
        if len(set(raw)) > config.f:
            raise ConfigError(f"{len(set(raw))} faulty nodes exceed the bound f={config.f}")
        if len(set(raw)) == config.n:
            raise ConfigError("every node is faulty; a run needs a correct node")
        return set(raw)
    if shape in ("range", "positive range"):
        lo, hi = _read(config, what, 2, raw)
        if not lo <= hi or shape == "positive range" and not lo > 0:
            positive = "0 < " if shape == "positive range" else ""
            raise ConfigError(f"{what} needs {positive}lo <= hi, got [{lo}, {hi}]")
        return lo, hi
    if inner is None:  # "values" or a count of numbers
        count = len(config.correct_ids) if shape == "values" else shape
        if len(raw) != count:
            raise ConfigError(f"{what} must hold {count} numbers, got {len(raw)}")
        require_types({int, float}, what, raw)
        return tuple(map(float, raw))
    if form == "list":
        return [_read(config, what, inner, v) for v in raw]
    if form == "round":
        rows = {}
        for k, row in raw.items():
            r = "*" if k == "*" else decimal_key(k, f"{what} round")
            if r != "*" and r < 1:
                raise ConfigError(f"{what} round {k!r} must be at least 1")
            rows[r] = _read(config, f"{what} row {k!r}", inner, row)
        return rows
    entries = {decimal_key(k, "node id"): v for k, v in raw.items()}
    unknown = sorted(i for i in entries if not 0 <= i < config.n)
    if unknown:
        raise ConfigError(f"{what} for unknown nodes {unknown}")
    return {i: _read(config, f"{what} for node {i}", inner, v) for i, v in entries.items()}


def _expect(what: str, raw, kind: str) -> None:
    """Raise unless ``raw`` is a JSON ``kind``: an "object" (a dict) or an "array" (a list or tuple)."""
    if not isinstance(raw, dict if kind == "object" else (list, tuple)):
        raise ConfigError(f"{what} must be a JSON {kind}, got {type(raw).__name__}")


def _spec(config: ScenarioConfig, name: str) -> tuple[str, dict]:
    """The kind spec ``name`` picks and its keys, each read as SPEC_KEYS says.

    A key the kind does not take, or a required one that is missing or null,
    is an error naming it; a key left out takes its default.
    """
    spec = getattr(config, name)
    _expect(name, spec, "object")
    pick, kinds = SPEC_KEYS[name]
    kind = spec.get(pick)
    if kind not in kinds:
        raise ConfigError(f"unknown {name} {pick} {kind!r}")
    unknown = set(spec) - {pick, *kinds[kind]}
    if unknown:
        raise ConfigError(f"unknown {name} keys {sorted(unknown, key=str)} for {pick} {kind!r}")
    checked = {}
    for key, (shape, default) in kinds[kind].items():
        raw = spec.get(key, default)
        if raw is None:
            raise ConfigError(f"{'null' if key in spec else 'missing'} {name} key {key!r} "
                              f"for {pick} {kind!r}")
        checked[key] = _read(config, f"{kind} {key}", shape, raw)
    return kind, checked


def build_mobility(config: ScenarioConfig, arena: Arena) -> MobilityModel:
    model, spec = _spec(config, "mobility")
    if model == "random-waypoint":
        return RandomWaypoint(arena, *spec["speed"])
    if model == "scripted":
        return Scripted(arena, spec["waypoints"])
    return Stationary() if model == "stationary" else TeleportRandom(arena)


def build_adversary(config: ScenarioConfig) -> Strategy:
    strategy, spec = _spec(config, "adversary")
    if strategy == "fixed-value":
        return FixedValue(spec["value"])
    if strategy == "extreme-split":
        return ExtremeSplit(spec["v_hi"], spec["v_lo"])
    if strategy == "random-legal":
        return RandomLegal(*spec["range"])
    return ScriptedTable(spec["table"]) if strategy == "scripted" else Silent()


def _initial_positions(config: ScenarioConfig, arena: Arena) -> Callable:
    mode, spec = _spec(config, "initial_positions")
    if mode == "uniform":
        return lambda rng: {i: arena.random_point(rng) for i in range(config.n)}
    coords = spec["coords"]
    for i in range(config.n):
        if i not in coords:
            raise ConfigError(f"explicit positions miss node {i}")
        if not arena.contains(coords[i]):
            raise ConfigError(f"initial position {coords[i]} of node {i} outside arena")
    return lambda rng: {i: coords[i] for i in range(config.n)}


def _initial_values(config: ScenarioConfig) -> Callable:
    mode, spec = _spec(config, "initial_values")
    correct = config.correct_ids
    if mode == "explicit":
        return lambda rng: dict(zip(correct, spec["values"]))
    lo, hi = spec["range"]
    return lambda rng: {i: rng.uniform(lo, hi) for i in correct}


def save_scenario(config: ScenarioConfig, path: str | Path) -> None:
    Path(path).write_text(json.dumps(config.to_dict(), indent=2, sort_keys=True) + "\n")


def load_scenario(path: str | Path) -> ScenarioConfig:
    """The scenario file at ``path``, checked, with a scripted ``table_file`` read into ``table``.

    A relative ``table_file`` is found beside the scenario file and read here
    only, so once per command; an inline ``table`` wins. Only a ``scripted``
    adversary takes ``table_file``: beside another strategy it is a stray key.
    """
    config = ScenarioConfig.from_dict(read_json(path, "scenario"))
    adversary = config.adversary
    if (isinstance(adversary, dict) and adversary.get("strategy") == "scripted"
            and "table_file" in adversary):
        config.adversary = dict(adversary)
        with malformed(ConfigError, "malformed scenario"):  # a table_file that is no path
            table_file = Path(config.adversary.pop("table_file"))
        if "table" not in config.adversary:
            config.adversary["table"] = read_json(Path(path).parent / table_file, "scripted table")
    config.validate()
    return config


def _square(cx: float, cy: float, side: float) -> list[tuple[float, float]]:
    return [(cx, cy), (cx + side, cy), (cx, cy + side), (cx + side, cy + side)]


def fully_connected_baseline() -> ScenarioConfig:
    """Everyone hears everyone, no faults active: spread halves and closes."""
    coords = {str(i): list(p) for i, p in enumerate(_square(4.0, 4.0, 1.0))}
    return ScenarioConfig(
        name="fully_connected_baseline",
        n=4,
        f=1,
        r_c=1,
        epsilon=0.1,
        max_rounds=40,
        radius=20.0,
        initial_values={"mode": "explicit", "values": [0.0, 1.0, 2.0, 3.0]},
        initial_positions={"mode": "explicit", "coords": coords},
        seed=1,
    )


def lemma2_3f_impossible() -> ScenarioConfig:
    """Population of 3f: the extreme holders can never gather f+1 proper values.

    One max holder, one min holder, one faulty node feeding each extreme
    holder values beyond its own extreme. Each correct node ever sees only
    f proper values, so no admission test passes and values never move.
    """
    return ScenarioConfig(
        name="lemma2_3f_impossible",
        n=3,
        f=1,
        r_c=2,
        epsilon=1.0,
        max_rounds=100,
        radius=2.5,
        adversary={"strategy": "extreme-split", "v_hi": 11.0, "v_lo": -1.0, "byz_set": [2]},
        initial_values={"mode": "explicit", "values": [10.0, 0.0]},
        initial_positions={
            "mode": "explicit",
            "coords": {"0": [4.0, 5.0], "1": [6.0, 5.0], "2": [5.0, 5.0]},
        },
        seed=2,
    )


def necessity_f_proper() -> ScenarioConfig:
    """Each extreme holder hears exactly f proper values: trimming eats them.

    Two nodes at the minimum and two at the maximum, wired in a ring so
    every node hears one same-valued peer and one opposite-valued peer.
    Admission passes, but the single proper value is always removed and
    every average reproduces the node's own value.
    """
    coords = {str(i): list(p) for i, p in enumerate(_square(1.0, 1.0, 1.0))}
    coords["4"] = [8.0, 8.0]
    return ScenarioConfig(
        name="necessity_f_proper",
        n=5,
        f=1,
        r_c=2,
        epsilon=1.0,
        max_rounds=40,
        adversary={"strategy": "silent", "byz_set": [4]},
        initial_values={"mode": "explicit", "values": [0.0, 0.0, 10.0, 10.0]},
        initial_positions={"mode": "explicit", "coords": coords},
        seed=3,
    )


def necessity_improper_mix() -> ScenarioConfig:
    """f+1 values arrive but one is improper; trimming removes the proper ones.

    Same split population, plus a faulty node adjacent to everyone that
    echoes each side's own extreme back at it. The echo makes the
    admission test pass, yet the surviving values all equal the receiver's
    own value, so nothing ever moves.
    """
    coords = {str(i): list(p) for i, p in enumerate(_square(1.0, 1.0, 1.0))}
    coords["4"] = [1.5, 1.5]
    return ScenarioConfig(
        name="necessity_improper_mix",
        n=5,
        f=1,
        r_c=2,
        epsilon=1.0,
        max_rounds=40,
        adversary={"strategy": "extreme-split", "v_hi": 10.0, "v_lo": 0.0, "byz_set": [4]},
        initial_values={"mode": "explicit", "values": [0.0, 0.0, 10.0, 10.0]},
        initial_positions={"mode": "explicit", "coords": coords},
        seed=4,
    )


def partition_never() -> ScenarioConfig:
    """Two cliques that never hear each other keep their distinct values."""
    coords = {str(i): list(p) for i, p in enumerate(_square(1.0, 1.0, 1.0))}
    for i, p in enumerate(_square(8.0, 8.0, 1.0)):
        coords[str(i + 4)] = list(p)
    return ScenarioConfig(
        name="partition_never",
        n=8,
        f=0,
        r_c=1,
        epsilon=1.0,
        max_rounds=30,
        arena=(12.0, 12.0),
        radius=1.5,
        initial_values={
            "mode": "explicit",
            "values": [0.0, 0.0, 0.0, 0.0, 10.0, 10.0, 10.0, 10.0],
        },
        initial_positions={"mode": "explicit", "coords": coords},
        seed=5,
    )


def fig1_scripted_path() -> ScenarioConfig:
    """A wanderer visits stations over four rounds, pooling one value per stop.

    Node 0 starts apart, then occupies the first station for two rounds
    and two further stations on the following rounds. With a retention
    window spanning the walk, the values collected at different stops
    combine into one admission-passing log.
    """
    return ScenarioConfig(
        name="fig1_scripted_path",
        n=4,
        f=1,
        r_c=4,
        epsilon=0.1,
        max_rounds=8,
        mobility={
            "model": "scripted",
            "waypoints": {
                "0": [[3.0, 5.0], [3.0, 5.0], [5.0, 5.0], [7.0, 5.0]],
            },
        },
        initial_values={"mode": "explicit", "values": [0.0, 1.0, 2.0, 3.0]},
        initial_positions={
            "mode": "explicit",
            "coords": {
                "0": [1.0, 5.0],
                "1": [3.0, 5.0],
                "2": [5.0, 5.0],
                "3": [7.0, 5.0],
            },
        },
        seed=6,
    )


def stale_log_overshoot() -> ScenarioConfig:
    """Retained old values push one node above the current maximum mid-phase.

    A high-valued visitor deposits its value with an isolated node and then
    averages itself down elsewhere; a faulty node later tops up the stale
    entry to f+1 on the high side. The isolated node then averages up past
    every current value, breaching the per-round envelope mid-phase while
    the phase-start envelope still holds.
    """
    return ScenarioConfig(
        name="stale_log_overshoot",
        n=5,
        f=1,
        r_c=4,
        epsilon=5.5,
        max_rounds=8,
        arena=(12.0, 12.0),
        mobility={
            "model": "scripted",
            "waypoints": {
                "1": [[1.5, 2.0], [5.5, 2.0]],
                "4": [[10.0, 10.0], [10.0, 10.0], [1.5, 2.0], [10.0, 10.0]],
            },
        },
        adversary={"strategy": "fixed-value", "value": 10.0, "byz_set": [4]},
        initial_values={"mode": "explicit", "values": [2.0, 10.0, 0.0, 0.0]},
        initial_positions={
            "mode": "explicit",
            "coords": {
                "0": [1.0, 2.0],
                "1": [1.5, 2.0],
                "2": [5.0, 2.0],
                "3": [6.0, 2.0],
                "4": [10.0, 10.0],
            },
        },
        seed=7,
    )


LIBRARY = {
    "fully_connected_baseline": fully_connected_baseline,
    "lemma2_3f_impossible": lemma2_3f_impossible,
    "necessity_f_proper": necessity_f_proper,
    "necessity_improper_mix": necessity_improper_mix,
    "partition_never": partition_never,
    "fig1_scripted_path": fig1_scripted_path,
    "stale_log_overshoot": stale_log_overshoot,
}


def builtin_scenario(name: str) -> ScenarioConfig:
    if name not in LIBRARY:
        raise ConfigError(
            f"unknown builtin scenario {name!r}; available: {', '.join(sorted(LIBRARY))}"
        )
    config = LIBRARY[name]()
    config.validate()
    return config
