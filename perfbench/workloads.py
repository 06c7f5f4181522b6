"""The four workloads: seeded op lists of CLI argv, with what each must print.

A run is a sequence of passes.  Each pass is the workload's whole sweep once,
drawn from the run's seed and the pass index, and every op in a run is
distinct: a pass draws its window jitter, pieces and bases afresh and redraws
any op already used in the run.  When a workload runs out of distinct ops the
run stops adding passes.

An op is a dict: ``argv`` (after the program name), ``key`` (the digest-table
key its stdout must match) and, for invariant ops, ``beta`` (the value the
input has by construction).
"""

from __future__ import annotations

import json

import gen

TABLE_NAMES = ("Ls", "Ln", "LR", "LC", "LCc", "Lgs", "scriptL", "Lq", "dR", "Lgq", "lR", "KO")
# Tables that declare no period; torsor needs --period for them.
APERIODIC = ("Lgs", "scriptL", "Lgq", "lR")
TABLE_VERBS = ("table", "dual", "torsor")
# Table windows are -EDGES[i]..EDGES[j]-1: 64 per (verb, name), every length a
# multiple of 4 so that --period 4 divides it.  Duals cost about 2.5 times a
# table over the same window, so they get smaller windows: the table ops then
# form one continuous cluster of latencies, and the op median of `suites`,
# which falls among them, does not sit between two clusters.
TABLE_EDGES = {"table": (40, 88, 136, 184, 232, 280, 328, 376),
               "dual": (16, 32, 48, 64, 80, 96, 112, 128),
               "torsor": (40, 88, 136, 184, 232, 280, 328, 376)}
TABLE_CELLS = 64
TABLE_OPS_PER_NAME = 3  # per verb and pass
# Verify windows are -(w + a)..(w + a) for a level w and 0 <= a < the jitter,
# which is at most the level spacing, so each level has its own distinct
# windows.  An odd number of presentation levels puts the op median inside one
# level.  A presentation op costs about the window to the 4.5th power, so its
# jitter is kept to 4: the seed then moves the op median and tail little.
SUITE_LEVELS, SUITE_JITTER = (12, 28, 44, 60, 76, 92, 108, 124), 16
PRESENTATION_LEVELS, PRESENTATION_JITTER = (16, 23, 30, 37, 44, 51, 58, 65, 72), 4
# Op medians and tails sit inside a run of same-sized ops, not between two
# sizes: for linking the median falls among the 2^9 forms and the tail among
# the 2^6 complexes.
LINKING_COMPLEX_PLANES = (1, 2, 2, 3, 3)  # |G| = 4^k
LINKING_FORM_LOG_ORDERS = (6, 7, 8, 9, 9, 9, 10, 10)

# Dense templates: for each size class (planes, contractible (c0, c1, c2)),
# master indices 0, 1 and 2.  A hiding is a seeded product of
# DENSE_STEPS_PER_RANK * rank row additions with multipliers up to DENSE_MULT
# in every degree.  The indices are fixed whatever the ops cost: at the seed
# commit master 0 of rank 11 takes about 45 s (see README.md).  The planes and
# their signed permutation come from the template and the pass index, not the
# run seed: they move one op's cost by up to 1.8x, which would shift the op
# median and tail from seed to seed.  The run seed draws the op order.
DENSE_MULT, DENSE_STEPS_PER_RANK = 2, 3
DENSE_MASTERS = (0, 1, 2)
DENSE_CLASSES = (
    (2, (1, 1, 1)),  # ranks 6, 6 in degrees 0, 1
    (2, (1, 2, 1)),  # 7
    (2, (2, 2, 2)),  # 8
    (2, (2, 3, 2)),  # 9
    (2, (3, 3, 3)),  # 10
    (2, (3, 4, 3)),  # 11
    (2, (4, 4, 4)),  # 12
)
DENSE_TEMPLATES = tuple((k, c, m) for k, c in DENSE_CLASSES for m in DENSE_MASTERS)


FRESH_TRIES = 64  # draws before a workload counts as out of distinct ops


class Exhausted(Exception):
    """No distinct op is left for another pass."""


def table_op(verb, name, cell):
    """Op ``cell`` of the 64 a (verb, table) pair can draw: window -EDGES[i]..EDGES[j]-1."""
    edges = TABLE_EDGES[verb]
    i, j = divmod(cell, len(edges))
    argv = [verb, "--name", name, "--window", f"{-edges[i]}..{edges[j] - 1}"]
    if verb == "torsor" and name in APERIODIC:
        argv += ["--period", "4"]
    return {"argv": argv, "key": f"{verb} {name}", "cell": cell}


class Workload:
    """One pass at a time from a run seed; remembers every op of the run."""

    #: passes every run makes, whatever the time budget
    min_passes = 3

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = workdir
        self.used = set()

    def fresh(self, tag, draw):
        """Call ``draw()`` until it returns a value not used yet under ``tag`` in this run."""
        for _ in range(FRESH_TRIES):
            value = draw()
            key = (tag, repr(value))
            if key not in self.used:
                self.used.add(key)
                return value
        raise Exhausted()

    def write_input(self, name, doc):
        path = self.workdir / name
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))
        return str(path)

    def make_pass(self, index):
        raise NotImplementedError


def verify_op(suite, window):
    lo, hi = window
    return {"argv": ["verify", suite, "--window", f"{lo}..{hi}"], "key": f"verify {suite}"}


def jittered(rng, level, jitter):
    w = level + rng.randrange(jitter)
    return -w, w


class Suites(Workload):
    # Two passes put the tail percentile (p95 of 248 ops) among the 32 verify ops.
    min_passes = 2

    def make_pass(self, index):
        rng = gen.new_rng("suites", self.seed, index)
        ops = []
        for suite in ("A", "B"):
            for level in SUITE_LEVELS:
                w = self.fresh(suite, lambda: jittered(rng, level, SUITE_JITTER))
                ops.append(verify_op(suite, w))
        for verb in TABLE_VERBS:
            for name in TABLE_NAMES:
                for _ in range(TABLE_OPS_PER_NAME):
                    cell = self.fresh((verb, name), lambda: rng.randrange(TABLE_CELLS))
                    ops.append(table_op(verb, name, cell))
        return gen.shuffled(rng, ops)


class Presentations(Workload):
    def make_pass(self, index):
        rng = gen.new_rng("presentations", self.seed, index)
        ops = []
        for level in PRESENTATION_LEVELS:
            w = self.fresh("presentations", lambda: jittered(rng, level, PRESENTATION_JITTER))
            ops.append(verify_op("presentations", w))
        return gen.shuffled(rng, ops)


def beta_op(path, beta):
    return {"argv": ["invariant", "--name", "beta", "--input", path],
            "key": f"beta {beta}", "beta": beta}


class Linking(Workload):
    # Six short passes put the tail percentile (p87 of 79 ops) among the 12
    # complexes with |G| = 2^6.
    min_passes = 6

    def make_pass(self, index):
        rng = gen.new_rng("linking", self.seed, index)
        ops = []
        if index == 0:
            ops.append({"argv": ["certify-ef"], "key": "certify-ef"})
        for n, k in enumerate(LINKING_COMPLEX_PLANES):
            def draw():
                planes = [rng.choice("FH") for _ in range(k)]
                cx = gen.plane_shuffle(gen.block_sum_complex(planes), planes, rng, flip_d=True)
                return gen.complex_doc(cx), planes
            doc, planes = self.fresh("complex", draw)
            gen.check_complex(doc)
            path = self.write_input(f"p{index}-complex{n}.json", doc)
            ops.append(beta_op(path, gen.planes_beta(planes)))
        for n, log_order in enumerate(LINKING_FORM_LOG_ORDERS):
            pieces = self.fresh("form", lambda: gen.random_pieces(rng, log_order))
            doc, beta = gen.checked_form(pieces)
            path = self.write_input(f"p{index}-form{n}.json", doc)
            ops.append(beta_op(path, beta))
        return gen.shuffled(rng, ops)


class Dense(Workload):
    # One pass is about 50 s at the seed commit, most of it in one op.
    min_passes = 1

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.hidings = [self.hiding(t) for t in DENSE_TEMPLATES]

    @staticmethod
    def hiding(template):
        """Template bases for every degree, each checked to be unimodular."""
        k, contractible, master = template
        ranks = gen.block_sum_complex(["H"] * k, contractible)["ranks"]
        rng = gen.new_rng("dense-template", k, *contractible, DENSE_MULT, DENSE_STEPS_PER_RANK,
                          master)
        return {deg: gen.unimodular(r, rng, DENSE_MULT, DENSE_STEPS_PER_RANK * r)
                for deg, r in ranks.items() if r}

    def make_pass(self, index):
        ops = []
        for n, (template, bases) in enumerate(zip(DENSE_TEMPLATES, self.hidings)):
            k, contractible = template[0], template[1]
            structure = gen.new_rng("dense-structure", n, index)

            def draw():
                planes = [structure.choice("FH") for _ in range(k)]
                cx = gen.plane_shuffle(gen.block_sum_complex(planes, contractible), planes,
                                       structure)
                return cx, planes
            cx, planes = self.fresh(n, draw)
            gen.check_complex(gen.complex_doc(cx))
            doc = gen.complex_doc(gen.change_basis(cx, bases))
            gen.check_complex(doc, poincare=False)
            path = self.write_input(f"p{index}-dense{n}.json", doc)
            ops.append(beta_op(path, gen.planes_beta(planes)))
        return gen.shuffled(gen.new_rng("dense", self.seed, index), ops)


WORKLOADS = {"suites": Suites, "presentations": Presentations, "linking": Linking, "dense": Dense}
