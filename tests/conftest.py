import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

# Make sibling test helpers (oracles.py) importable regardless of rootdir.
sys.path.insert(0, str(Path(__file__).parent))

from denseprf import pipeline
from denseprf.encoder import EncoderConfig, init_params
from denseprf.index import VectorIndex
from denseprf.tokenizer import build_vocab


def pytest_configure(config):
    config._acceptance_lines = []


@pytest.fixture(scope="session")
def acceptance_lines(request):
    """Shared sink for the one-line-per-criterion acceptance report."""
    return request.config._acceptance_lines


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    lines = getattr(config, "_acceptance_lines", [])
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in sorted(lines):
            terminalreporter.write_line(line)


@pytest.fixture()
def retrieval_calls(monkeypatch):
    """Counts of query encodes and index searches, observed from outside.

    Wraps ``pipeline.encode`` (the query encoder both rounds call) and
    ``VectorIndex.search``; corpus encoding outside ``pipeline`` is not seen.
    """
    calls = Counter()
    real_encode, real_search = pipeline.encode, VectorIndex.search

    def counting_encode(*args, **kwargs):
        calls["encode"] += 1
        return real_encode(*args, **kwargs)

    def counting_search(*args, **kwargs):
        calls["search"] += 1
        return real_search(*args, **kwargs)

    monkeypatch.setattr(pipeline, "encode", counting_encode)
    monkeypatch.setattr(VectorIndex, "search", counting_search)
    return calls


MIXED_CORPUS = {
    "d1": "Quantum Flux capacitors hum softly",
    "d2": "quantum flux readings drift overnight",
    "d3": "Garden gnomes Guard the quiet lawn",
    "d4": "the gnomes hum quantum tunes",
    "d5": "Overnight drift ruins the Garden",
}


@pytest.fixture(scope="session")
def mixed_corpus():
    return dict(MIXED_CORPUS)


@pytest.fixture(scope="session")
def mixed_vocab(mixed_corpus):
    return build_vocab(mixed_corpus.values())


@pytest.fixture()
def tiny_params(mixed_vocab):
    cfg = EncoderConfig(
        vocab_size=len(mixed_vocab), dim=16, layers=1, heads=2, max_len=64
    )
    return init_params(cfg, seed=7)


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)
