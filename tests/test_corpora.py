"""Each corpus replay fails when one recorded value is wrong."""

import json
import shutil

import pytest

import corpora

# (replay, corpus file, section, key): the first entry of the section gets a
# different value under key, so a replay that compares nothing shows here
MUTATIONS = [
    (corpora.replay_normal_forms, "normal_forms.json", "entries", "normal_form"),
    (corpora.replay_normal_forms, "normal_forms.json", "entries", "draw"),
    (corpora.replay_scalars, "scalars.json", "entries", "canon"),
    (corpora.replay_certificates, "certificates.json", "entries", "certificates"),
    (corpora.replay_invariant_factors, "invariant_factors.json", "lens", "factors"),
    (corpora.replay_invariant_factors, "invariant_factors.json", "gysin", "factors"),
    (corpora.replay_representations, "representations.json", "residuals", "per_relation"),
    (corpora.replay_representations, "representations.json", "traces", "partial_trace"),
    (corpora.replay_representations, "representations.json", "operators", "sha256"),
    (corpora.replay_representations, "representations.json", "generators", "sha256"),
    (corpora.replay_representations, "representations.json", "sectors", "generators"),
    (corpora.replay_certify_reports, "certify_reports.json", "entries", "stdout"),
    (corpora.replay_rep_reports, "rep_reports.json", "entries", "stdout"),
    (corpora.replay_error_reports, "error_reports.json", "entries", "stdout"),
    (corpora.replay_suite_report, "suite_report.json", "checks", "cases"),
]


def _changed(value):
    """A value of the same type that differs from value."""
    if isinstance(value, dict):
        first = next(iter(value))
        return {**value, first: _changed(value[first])}
    if isinstance(value, list):
        return value + [value[-1] if value else 1]
    if isinstance(value, str):
        return value + "0"
    return value + 1


def _render(corpus):
    # sorted keys and a two-space indent, as qwp renders the suite report
    return json.dumps(corpus, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize(
    "replay, name, section, key",
    MUTATIONS,
    ids=[f"{name[:-5]}-{section}-{key}" for _, name, section, key in MUTATIONS],
)
def test_replay_fails_on_a_changed_value(replay, name, section, key, tmp_path, monkeypatch):
    data = tmp_path / "data"
    shutil.copytree(corpora.DATA, data)
    text = (data / name).read_text(encoding="utf-8")
    corpus = json.loads(text)
    entry = corpus[section][0]
    entry[key] = _changed(entry[key])
    (data / name).write_text(_render(corpus), encoding="utf-8")
    monkeypatch.setattr(corpora, "DATA", data)
    if replay is corpora.replay_suite_report:
        # the suite_run fixture of test_acceptance.py replays the real run; here
        # the run is its recorded output, and the rewrite kept its other bytes
        assert _render(json.loads(text)) == text
        monkeypatch.setattr(corpora, "run_streams", lambda argv: (0, text, ""))
    with pytest.raises(AssertionError):
        replay()
