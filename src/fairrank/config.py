"""Experiment configuration: INI files in, one resolved snapshot out.

The resolved snapshot is a deterministic text rendering of every effective
value (defaults filled in, overrides applied).  Its hash names the run
directory, so identical configurations land in the same place and any
change, seed included, gets a fresh one.
"""

import configparser
import hashlib
import io
import math
import os
from dataclasses import MISSING, dataclass, field, fields

from .data import SyntheticSpec, read_text
from .errors import ConfigError
from .evaluation import EXCLUDE_TRAIN, EXCLUDE_TRAIN_VAL
from .trainer import TrainConfig


def _convert(fn, what):
    def parse(raw):
        try:
            return fn(raw)
        except ValueError:
            raise ValueError(f"expected {what}, got '{raw}'") from None
    return parse


def _list(parse):
    """Comma-separated values; a bad element is reported by itself."""
    return lambda raw: tuple(
        parse(part.strip()) for part in raw.split(",") if part.strip()
    )


_int = _convert(int, "an integer")
_number = _convert(float, "a number")


def _float(raw):
    value = _number(raw)
    if not math.isfinite(value):
        raise ValueError(f"must be finite, got '{raw}'")
    return value


def _ks(raw):
    ks = _list(_int)(raw)
    if not ks or min(ks) < 1:
        raise ValueError("need positive integers")
    if len(set(ks)) < len(ks):
        raise ValueError(f"must list each k once, got '{raw}'")
    return ks


def _exclude(raw):
    if raw not in (EXCLUDE_TRAIN, EXCLUDE_TRAIN_VAL):
        raise ValueError(
            f"must be '{EXCLUDE_TRAIN}' or '{EXCLUDE_TRAIN_VAL}', got '{raw}'"
        )
    return raw


def _user_pairs(raw):
    pairs = _int(raw)
    if pairs < 1:
        raise ValueError("must be >= 1")
    return pairs


# section -> INI key -> (ExperimentConfig attribute path, parser), in the
# order config.resolved prints them.  A numeric path step indexes a tuple.
# Parsers raise ValueError with the text that follows "config [s] key: ".
_SCHEMA = {
    "data": {
        "interactions": ("interactions", str),
        "groups": ("groups", str),
        "test_ratio": ("ratios.2", _float),
        "train_ratio": ("ratios.0", _float),
        "val_ratio": ("ratios.1", _float),
    },
    "train": {
        "adv_hidden": ("train.adv_hidden", _int),
        "adv_layers": ("train.adv_layers", _int),
        "alpha": ("train.weights.alpha", _float),
        "batch_size": ("train.batch_size", _int),
        "beta": ("train.weights.beta", _float),
        "dim": ("train.dim", _int),
        "epochs": ("train.epochs", _int),
        "eval_every": ("train.eval_every", _int),
        "gamma": ("train.weights.gamma", _float),
        "lambda_model": ("train.weights.lambda_model", _float),
        "lambda_theta": ("train.weights.lambda_theta", _float),
        "lr_adv": ("train.lr_adv", _float),
        "lr_bpr": ("train.lr_bpr", _float),
        "model": ("train.kind", str),
        "negative_rate": ("train.negative_rate", _int),
        "pretrain_epochs": ("train.pretrain_epochs", _int),
        "seed": ("train.seed", _int),
        "theta_batches_per_round": ("train.theta_batches_per_round", _int),
    },
    "eval": {
        "exclude": ("eval_exclude", _exclude),
        "js_user_pairs": ("js_user_pairs", _user_pairs),
        "ks": ("eval_ks", _ks),
    },
    "synthetic": {
        "group_item_shares": ("synthetic.group_item_shares", _list(_float)),
        "group_popularity": ("synthetic.group_popularity", _list(_float)),
        "interactions_per_user": ("synthetic.interactions_per_user", _int),
        "num_groups": ("synthetic.num_groups", _int),
        "num_items": ("synthetic.num_items", _int),
        "num_users": ("synthetic.num_users", _int),
        "seed": ("synthetic.seed", _int),
    },
    # locates the run without shaping it, so config.resolved leaves it out
    "output": {"dir": ("output_dir", str)},
}
_REQUIRED = {f.name for f in fields(SyntheticSpec) if f.default is MISSING}


def _get(obj, path):
    for name in path.split("."):
        if obj is not None:
            obj = obj[int(name)] if name.isdigit() else getattr(obj, name)
    return obj


def _assign(obj, path, value):
    name, _, rest = path.partition(".")
    if rest:
        value = _assign(getattr(obj, name), rest, value)
    if name.isdigit():
        return obj[: int(name)] + (value,) + obj[int(name) + 1 :]
    setattr(obj, name, value)
    return obj


def _text(value):
    if isinstance(value, (tuple, list)):
        return ",".join(_text(v) for v in value)
    return repr(value) if isinstance(value, float) else str(value)


@dataclass
class ExperimentConfig:
    interactions: str = None
    groups: str = None
    ratios: tuple = (0.6, 0.2, 0.2)
    train: TrainConfig = field(default_factory=TrainConfig)
    eval_ks: tuple = (5, 10, 15)
    eval_exclude: str = EXCLUDE_TRAIN_VAL
    js_user_pairs: int = 1000
    synthetic: SyntheticSpec = None
    output_dir: str = "runs"

    def resolved_text(self):
        """Deterministic dump of every value that shapes the result.

        The output directory is deliberately left out: it locates the run
        but does not influence it, and the run-directory name is the hash
        of this text.
        """
        blocks = []
        for section, keys in _SCHEMA.items():
            lines = [f"[{section}]"] + [
                f"{key} = {_text(value)}"
                for key, (path, _) in keys.items()
                if (value := _get(self, path)) is not None
            ]
            if len(lines) > 1 and section != "output":
                blocks.append("\n".join(lines))
        return "\n\n".join(blocks) + "\n"

    def config_hash(self):
        text = self.resolved_text().encode("utf-8")
        return hashlib.sha256(text).hexdigest()[:12]


def load_config(path, validate_train=True):
    """Parse an INI experiment file into an ExperimentConfig.

    validate_train=False skips static training-field validation, for
    callers that will fill fields in afterwards (the sweep command).
    """
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    # read by the CSV files' rule: a leading BOM dropped, and an unreadable
    # or non-UTF-8 file is a ConfigError naming the path; newline=None
    # reads "\r\n" and "\r" as "\n", as a text-mode open() does
    text = read_text(path, ConfigError)
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_file(io.StringIO(text, newline=None), source=path)
    except configparser.Error as exc:
        raise ConfigError(f"config: not valid INI: {exc}")
    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"config: unknown section [{section}]")
    for section in parser.sections():
        for key in parser[section]:
            if key not in _SCHEMA[section]:
                raise ConfigError(
                    f"config: unknown key '{key}' in section [{section}]"
                )
    cfg = ExperimentConfig()
    for section, keys in _SCHEMA.items():
        if not parser.has_section(section):
            continue
        items = parser[section]
        if section == "synthetic":
            for key, (path, _) in keys.items():
                if key not in items and path.split(".")[-1] in _REQUIRED:
                    raise ConfigError(f"config [synthetic] {key}: required")
            cfg.synthetic = SyntheticSpec(**dict.fromkeys(_REQUIRED))
        for key, (path, parse) in keys.items():
            if key in items:
                try:
                    value = parse(items[key])
                except ValueError as exc:
                    raise ConfigError(f"config [{section}] {key}: {exc}")
                _assign(cfg, path, value)
    if abs(sum(cfg.ratios) - 1.0) > 1e-9:
        raise ConfigError(
            "config [data] train_ratio, val_ratio, test_ratio: must sum to 1, "
            f"got {sum(cfg.ratios):.12g}"
        )
    if cfg.synthetic is not None:
        cfg.synthetic.validate()
    if validate_train:
        cfg.train.validate()
    return cfg
