"""The generators against the one-graph-per-blowup oracle: the same seed
gives the same graph and leaves the rng in the same state."""

import random

import pytest

import generate_oracle
from splicezeta import generate
from splicezeta.diagrams import PlumbingGraph, blowup
from splicezeta.generate import random_plumbing, random_valid_splice
from splicezeta.io import print_plumbing, print_splice

SIZES = (0, 1, 2, 5, 10, 20, 40, 80, 160, 320)


@pytest.mark.parametrize("warrow_chance", (0, 1))
def test_random_plumbing_matches_oracle(warrow_chance):
    for seed in range(51):
        for blowups in SIZES:
            ours, theirs = random.Random(seed), random.Random(seed)
            g = random_plumbing(ours, blowups=blowups, arrows=2, warrow_chance=warrow_chance)
            h = generate_oracle.random_plumbing(theirs, blowups=blowups, arrows=2, warrow_chance=warrow_chance)
            assert print_plumbing(g) == print_plumbing(h), (seed, blowups)
            assert ours.getstate() == theirs.getstate(), (seed, blowups)


def test_random_valid_splice_matches_oracle(monkeypatch):
    ours = [print_splice(random_valid_splice(random.Random(k), with_warrows=True)) for k in range(300)]
    monkeypatch.setattr(generate, "random_plumbing", generate_oracle.random_plumbing)
    theirs = [print_splice(random_valid_splice(random.Random(k), with_warrows=True)) for k in range(300)]
    assert ours == theirs


@pytest.mark.parametrize("blowups", (5, 320))
def test_random_plumbing_builds_one_graph(monkeypatch, blowups):
    built = []
    init = PlumbingGraph.__init__

    def counting(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(PlumbingGraph, "__init__", counting)
    random_plumbing(random.Random(0), blowups=blowups, arrows=2, warrow_chance=1.0)
    assert len(built) == 1


def test_blowup_matches_oracle_at_every_locus():
    rng = random.Random(3)
    for _ in range(20):
        g = random_plumbing(rng, blowups=rng.randint(0, 12), arrows=2, warrow_chance=1.0)
        loci = [("vertex", v.id) for v in g.vertices] + [("edge", e[::-1]) for e in g.edges]
        loci += [("arrow", a.id) for a in g.farrows] + [("arrow", w.id) for w in g.warrows if w.at]
        for locus in loci:
            assert print_plumbing(blowup(g, locus)) == print_plumbing(generate_oracle.blowup(g, locus))
