"""Every CLI artifact hands ``run_campaign`` the same cells, in order.

The result store is content-addressed by :func:`config_key`, so a
change to how an artifact builds its cells — a field set in a
different way, a cell moved — silently re-simulates every cached
result, and a changed order changes what ``--jobs 1`` prints. Each case
runs the real CLI with ``run_campaign`` replaced by a recorder that
raises, and compares the ordered keys with a pin (cell count and a
digest of the newline-joined keys).
"""

import hashlib

import pytest

import repro.parallel
from repro.experiments.cli import main
from repro.experiments.store import config_key


class _Captured(Exception):
    pass


#: argv (after the artifact's ``--scale quick``) -> (cells, digest).
PINS = {
    "table2": (4, "cec71d2b58f1a4d5"),
    "fig5": (22, "1808b9b4d02c05f0"),
    "fig6": (22, "a03b4617e2b4da3f"),
    "fig7": (22, "8c180ec67b5ad892"),
    "fig8": (22, "ed8db3a6a5c3c651"),
    "fig9a": (6, "00d41925e6e482dc"),
    "fig9b": (6, "3f782c2013367b13"),
    "fig10": (6, "c27b1c3c06a8569f"),
    "faults": (14, "6540b7ea46936d3c"),
    "arena": (15, "5d5bc4ad470548d7"),
    "fig8 --cc dctcp --transport": (22, "8fbe08d0d3e48676"),
    "table2 --chaos 7": (4, "9e8080b4987a64c5"),
    "arena --quick --cc reno": (6, "e107090a02926ce6"),
}


def captured_keys(monkeypatch, argv):
    seen = []

    def record(configs, **_):
        seen.extend(config_key(cfg) for cfg in configs)
        raise _Captured

    monkeypatch.setattr(repro.parallel, "run_campaign", record)
    with pytest.raises(_Captured):
        main(argv)
    return seen


@pytest.mark.parametrize("case", sorted(PINS))
def test_cli_artifact_cell_keys_are_pinned(monkeypatch, case):
    artifact, *flags = case.split()
    keys = captured_keys(monkeypatch, [artifact, "--scale", "quick", *flags])
    digest = hashlib.sha256("\n".join(keys).encode()).hexdigest()[:16]
    assert (len(keys), digest) == PINS[case], keys
