import numpy as np
import pytest

from tinylm.data import zipf_corpus


def _zipf_corpus_by_choice(n_bytes, seed, n_words, alpha):
    """The generator as first written: one ``Generator.choice`` per line."""
    rng = np.random.default_rng(seed)
    letters = np.frombuffer(b"abcdefghijklmnopqrstuvwxyz", dtype=np.uint8)
    lexicon, seen = [], set()
    while len(lexicon) < n_words:
        length = int(rng.integers(2, 9))
        word = bytes(letters[rng.integers(0, 26, size=length)])
        if word not in seen:
            seen.add(word)
            lexicon.append(word)
    weights = 1.0 / np.arange(1, n_words + 1) ** alpha
    weights /= weights.sum()
    chunks, total = [], 0
    while total < n_bytes:
        n = int(rng.integers(4, 10))
        line = b" ".join(lexicon[i] for i in rng.choice(n_words, size=n, p=weights)) + b". "
        chunks.append(line)
        total += len(line)
    return b"".join(chunks)[:n_bytes]


@pytest.mark.parametrize("n_bytes, seed, n_words, alpha", [
    (0, 0, 200, 1.2),
    (1, 3, 5, 1.2),
    (20_000, 0, 200, 1.2),
    (60_000, 7, 2000, 1.2),
    (5_000, 9, 1, 1.2),      # one word: every draw is rank 0
    (8_000, 2, 50, 40.0),    # nearly all mass on the first rank
    (7_777, 5, 10, 0.0),     # uniform
])
def test_zipf_corpus_bytes_match_per_line_choice(n_bytes, seed, n_words, alpha):
    assert zipf_corpus(n_bytes, seed, n_words, alpha) == _zipf_corpus_by_choice(
        n_bytes, seed, n_words, alpha)
