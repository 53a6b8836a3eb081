from fenstring import ApplyOptions, differential_fuzz, fuzz_pairs
from fenstring import fuzzing

from conftest import pseudo_game


def test_fuzz_pairs_walk_the_pseudo_game():
    for options in (ApplyOptions(), ApplyOptions(ep_mode="adjacent-only", clock_mode="frozen")):
        expected = [(fen, move) for fen, move, _ in pseudo_game(600, seed=5, options=options)]
        assert list(fuzz_pairs(600, 5, options)) == expected


def test_every_pair_reaches_the_oracle(monkeypatch):
    # a wrong oracle must be handed each pair once and mismatch on each,
    # with the string path's own result in the counterexample
    seen = []

    def wrong_oracle(fen, move, options):
        seen.append((fen, move))
        return "not a fen"

    monkeypatch.setattr(fuzzing, "oracle_apply", wrong_oracle)
    game = pseudo_game(300, seed=7)
    report = differential_fuzz(300, 7)
    assert seen == [(fen, move) for fen, move, _ in game]
    assert (report.positions, report.mismatches) == (300, 300)
    fen, move, outcome = game[0]
    assert report.first_counterexample == (fen, move, outcome.fen_after, "not a fen")
