"""Golden tests for the INI loader and the resolved snapshot.

The resolved text names every run directory through its hash, so its bytes
are pinned here exactly, as are the loader's error messages.
"""

import pytest

from fairrank.config import load_config
from fairrank.errors import ConfigError

MINIMAL_INI = "[data]\ninteractions = data/interactions.csv\n"

MINIMAL_RESOLVED = """\
[data]
interactions = data/interactions.csv
test_ratio = 0.2
train_ratio = 0.6
val_ratio = 0.2

[train]
adv_hidden = 50
adv_layers = 4
batch_size = 1024
dim = 20
epochs = 50
eval_every = 5
lambda_theta = 0.1
lr_adv = 0.005
lr_bpr = 0.01
model = bpr
negative_rate = 5
pretrain_epochs = 10
seed = 0
theta_batches_per_round = 1

[eval]
exclude = train+val
js_user_pairs = 1000
ks = 5,10,15
"""

# every key of every section, sections and keys out of resolved order
FULL_INI = """\
[output]
dir = out/sweeps

[eval]
ks = 3, 7
exclude = train
js_user_pairs = 250

[train]
seed = 11
model = dpr-rsp
dim = 16
lr_bpr = 1
lr_adv = 0.002
lambda_theta = 0.05
alpha = 40
beta = 0.5
lambda_model = 2.5
gamma = 1e-3
negative_rate = 3
batch_size = 512
epochs = 12
pretrain_epochs = 4
adv_layers = 2
adv_hidden = 30
theta_batches_per_round = 8
eval_every = 2

[data]
val_ratio = 0.1
groups = data/groups.csv
test_ratio = 0.2
interactions = data/interactions.csv
train_ratio = 0.7

[synthetic]
num_users = 200
num_items = 60
num_groups = 3
group_item_shares = 0.5, 0.3,0.2
group_popularity = 0.9,0.5,0.1
interactions_per_user = 10
"""

FULL_RESOLVED = """\
[data]
interactions = data/interactions.csv
groups = data/groups.csv
test_ratio = 0.2
train_ratio = 0.7
val_ratio = 0.1

[train]
adv_hidden = 30
adv_layers = 2
alpha = 40.0
batch_size = 512
beta = 0.5
dim = 16
epochs = 12
eval_every = 2
gamma = 0.001
lambda_model = 2.5
lambda_theta = 0.05
lr_adv = 0.002
lr_bpr = 1.0
model = dpr-rsp
negative_rate = 3
pretrain_epochs = 4
seed = 11
theta_batches_per_round = 8

[eval]
exclude = train
js_user_pairs = 250
ks = 3,7

[synthetic]
group_item_shares = 0.5,0.3,0.2
group_popularity = 0.9,0.5,0.1
interactions_per_user = 10
num_groups = 3
num_items = 60
num_users = 200
seed = 0
"""

SYNTH_INI = (
    "[synthetic]\n"
    "num_users = 10\n"
    "num_items = 8\n"
    "num_groups = 2\n"
    "group_item_shares = 0.5,0.5\n"
    "group_popularity = 0.9,0.3\n"
    "interactions_per_user = 3\n"
)


def _load(tmp_path, text, **kw):
    path = tmp_path / "exp.ini"
    path.write_text(text, encoding="utf-8")
    return load_config(str(path), **kw)


@pytest.mark.parametrize(
    "text,resolved,digest",
    [
        (MINIMAL_INI, MINIMAL_RESOLVED, "85b2b2c415f3"),
        (FULL_INI, FULL_RESOLVED, "aa48357a6ed3"),
    ],
    ids=["minimal", "full"],
)
def test_resolved_text_and_hash_are_pinned(tmp_path, text, resolved, digest):
    cfg = _load(tmp_path, text)
    assert cfg.resolved_text() == resolved
    assert cfg.config_hash() == digest
    # the snapshot is itself a loadable INI that resolves to the same bytes
    again = _load(tmp_path, cfg.resolved_text())
    assert again.resolved_text() == resolved
    assert again.config_hash() == digest


def test_full_ini_field_values(tmp_path):
    cfg = _load(tmp_path, FULL_INI)
    assert cfg.output_dir == "out/sweeps"
    assert cfg.ratios == (0.7, 0.1, 0.2)
    assert cfg.eval_ks == (3, 7)
    t = cfg.train
    assert (t.kind, t.dim, t.lr_bpr, t.seed) == ("dpr-rsp", 16, 1.0, 11)
    assert type(t.lr_bpr) is float and type(t.dim) is int
    w = t.weights
    assert (w.alpha, w.beta, w.gamma, w.lambda_model, w.lambda_theta) == (
        40.0, 0.5, 0.001, 2.5, 0.05
    )
    s = cfg.synthetic
    assert s.group_item_shares == (0.5, 0.3, 0.2)
    assert (s.num_users, s.num_items, s.num_groups, s.seed) == (200, 60, 3, 0)


@pytest.mark.parametrize(
    "text,message",
    [
        pytest.param(
            "[model]\nx = 1\n",
            "config: unknown section [model]",
            id="unknown-section",
        ),
        pytest.param(
            "[train]\nlearning_rate = 0.1\n",
            "config: unknown key 'learning_rate' in section [train]",
            id="unknown-key",
        ),
        pytest.param(
            "[output]\ndir = runs\nseed = 1\n",
            "config: unknown key 'seed' in section [output]",
            id="key-of-another-section",
        ),
        pytest.param(
            "[train]\ndim = 2.5\n",
            "config [train] dim: expected an integer, got '2.5'",
            id="dim-not-integer",
        ),
        pytest.param(
            "[train]\nalpha = big\n",
            "config [train] alpha: expected a number, got 'big'",
            id="alpha-not-number",
        ),
        pytest.param(
            "[train]\nlr_bpr = nan\n",
            "config [train] lr_bpr: must be finite, got 'nan'",
            id="lr-nan",
        ),
        pytest.param(
            "[train]\nalpha = inf\n",
            "config [train] alpha: must be finite, got 'inf'",
            id="alpha-inf",
        ),
        pytest.param(
            "[data]\nval_ratio = nan\n",
            "config [data] val_ratio: must be finite, got 'nan'",
            id="ratio-nan",
        ),
        pytest.param(
            SYNTH_INI.replace("0.9,0.3", "0.9,-inf"),
            "config [synthetic] group_popularity: must be finite, got '-inf'",
            id="popularity-element-inf",
        ),
        pytest.param(
            "[eval]\nks = 5,x\n",
            "config [eval] ks: expected an integer, got 'x'",
            id="ks-bad-element",
        ),
        pytest.param(
            SYNTH_INI.replace("0.5,0.5", "0.5,zz"),
            "config [synthetic] group_item_shares: expected a number, got 'zz'",
            id="shares-bad-element",
        ),
        pytest.param(
            SYNTH_INI.replace("num_items = 8\n", ""),
            "config [synthetic] num_items: required",
            id="synthetic-missing-key",
        ),
        pytest.param(
            SYNTH_INI.replace("0.9,0.3", "0.9,1.5"),
            "group_popularity: values must lie in (0, 1]",
            id="synthetic-invalid-spec",
        ),
        pytest.param(
            "[eval]\nks = 0\n",
            "config [eval] ks: need positive integers",
            id="ks-zero",
        ),
        pytest.param(
            "[eval]\nks = ,\n",
            "config [eval] ks: need positive integers",
            id="ks-empty",
        ),
        pytest.param(
            "[eval]\nexclude = none\n",
            "config [eval] exclude: must be 'train' or 'train+val', got 'none'",
            id="exclude-unknown",
        ),
        pytest.param(
            "[eval]\njs_user_pairs = 0\n",
            "config [eval] js_user_pairs: must be >= 1",
            id="js-user-pairs-zero",
        ),
        pytest.param(
            "[data]\ntrain_ratio = 0.7\n",
            "config [data] train_ratio, val_ratio, test_ratio: must sum to 1, "
            "got 1.1",
            id="ratios-sum",
        ),
        pytest.param(
            "[train]\nmodel = nope\n",
            "train.model: unknown kind 'nope'",
            id="train-validation",
        ),
    ],
)
def test_config_errors(tmp_path, text, message):
    with pytest.raises(ConfigError) as exc:
        _load(tmp_path, text)
    assert str(exc.value) == message


def test_a_repeated_k_is_refused(tmp_path):
    # "5,5,10" printed the k = 5 line twice and hashed unlike "5,10"
    with pytest.raises(ConfigError) as exc:
        _load(tmp_path, "[eval]\nks = 5,5,10\n")
    assert str(exc.value) == "config [eval] ks: must list each k once, got '5,5,10'"
    # an unsorted list stays as written: its run hash is unchanged
    assert _load(tmp_path, "[eval]\nks = 10,5\n").eval_ks == (10, 5)


def test_file_errors(tmp_path):
    missing = str(tmp_path / "absent.ini")
    with pytest.raises(ConfigError) as exc:
        load_config(missing)
    assert str(exc.value) == f"config file not found: {missing}"
    with pytest.raises(ConfigError, match="^config: not valid INI: "):
        _load(tmp_path, "key = outside any section\n")


def test_non_utf8_config_is_a_config_error(tmp_path):
    # an uncaught UnicodeDecodeError before
    path = tmp_path / "exp.ini"
    path.write_bytes(b"[data]\ninteractions = caf\xe9.csv\n")
    with pytest.raises(ConfigError) as exc:
        load_config(str(path))
    assert str(exc.value) == f"{path}: not UTF-8 text (invalid continuation byte)"


def test_config_directory_is_a_config_error(tmp_path):
    # an uncaught IsADirectoryError before
    with pytest.raises(ConfigError) as exc:
        load_config(str(tmp_path))
    assert str(exc.value) == f"{tmp_path}: cannot read (Is a directory)"


def test_config_with_a_bom_reads_as_without(tmp_path):
    # failed as "not valid INI: File contains no section headers", though
    # both CSV files accept a BOM
    path = tmp_path / "bom.ini"
    path.write_bytes(b"\xef\xbb\xbf" + MINIMAL_INI.encode())
    cfg = load_config(str(path))
    assert cfg.resolved_text() == MINIMAL_RESOLVED
    assert cfg.config_hash() == _load(tmp_path, MINIMAL_INI).config_hash()


def test_validate_train_false_defers_training_checks(tmp_path):
    cfg = _load(tmp_path, "[train]\nmodel = dpr-rsp\n", validate_train=False)
    assert cfg.train.weights.alpha is None
    with pytest.raises(ConfigError, match="alpha required"):
        cfg.train.validate()
