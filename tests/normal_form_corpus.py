"""Replay the recorded normal-form corpus, tests/data/normal_forms.json.

Every recorded word is normalized under both strategies and compared with
its recorded normal form, and the random walk's next draw with the recorded
one.  It imports only qwp and the standard library, so it also runs against
an install without the test extras:

    python tests/normal_form_corpus.py
"""

import json
import random
from pathlib import Path

from qwp.star_algebra import AlgebraPresentation, Generator, normalize

CORPUS = Path(__file__).parent / "data" / "normal_forms.json"


def _letter(token):
    if token in ("w", "w*"):
        return Generator(token, -1)
    return Generator("z*" if token.endswith("*") else "z", int(token[1:].rstrip("*")))


def replay_corpus():
    """Check every recorded entry under both strategies; returns the entry count."""
    entries = json.loads(CORPUS.read_text(encoding="utf-8"))["entries"]
    for trial, entry in enumerate(entries):
        pres = AlgebraPresentation(*entry["presentation"])
        word = [_letter(t) for t in entry["word"].split()]
        for strategy in ("leftmost", "random"):
            rng = random.Random(trial)
            nf = normalize(word, pres, strategy=strategy, rng=rng)
            assert str(nf) == entry["normal_form"], f"{strategy} differs on {entry['word']}"
        # the random walk's rng calls, pinned by the next draw after them
        assert rng.random() == entry["draw"], f"random walk draws differ on {entry['word']}"
    return len(entries)


if __name__ == "__main__":
    print(f"{replay_corpus()} normal forms match under both strategies")
