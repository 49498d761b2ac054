"""Shared builders for solver- and trainer-level tests.

The random instances mirror the structure the registration produces: labels
are displacement candidates, unaries grow with the distance between a label
and a smooth per-node preferred displacement, the pairwise table is the L1
metric between displacements.
"""

import numpy as np

from mmreg import graphreg as gr
from mmreg import learn
from mmreg import metrics as me
from mmreg.volume import LabelSpace


def grid_edges_2d(nx, ny):
    e = []
    for y in range(ny):
        for x in range(nx):
            i = x + nx * y
            if x + 1 < nx:
                e.append([i, i + 1])
            if y + 1 < ny:
                e.append([i, i + nx])
    return np.array(e)


def seeded_instance(seed, n_nodes=6, n_labels=4, wp_range=(0.0, 1.0)):
    rng = np.random.default_rng(seed)
    disp = np.vstack([[0.0, 0.0, 0.0], rng.uniform(-8, 8, (n_labels - 1, 3))])
    ls = LabelSpace(disp)
    table = gr.pairwise_l1_table(ls)
    base = rng.uniform(-8, 8, 3)
    unaries = np.zeros((n_nodes, n_labels))
    for i in range(n_nodes):
        target = base + rng.normal(0, 2.0, 3)
        unaries[i] = 0.8 * np.abs(disp - target).sum(axis=1) + rng.normal(0, 1.0, n_labels)
    unaries -= unaries.min()
    wp = rng.uniform(*wp_range)
    return gr.MrfInstance(unaries, wp, table, grid_edges_2d(2, 3)), rng


def build_toy_sample(seed, V=6, L=4):
    """Hand-built prepared training sample on a 2x3 node grid."""
    rng = np.random.default_rng(seed)
    edges = grid_edges_2d(2, 3)
    disp = np.vstack([[0.0, 0.0, 0.0], rng.uniform(-5, 5, (L - 1, 3))])
    ls = LabelSpace(disp)
    base = rng.uniform(-5, 5, 3)
    feats = np.zeros((V, L, me.N_METRICS))
    for i in range(V):
        target = base + rng.normal(0, 1.5, 3)
        dist = np.abs(disp - target).sum(axis=1)
        for j in range(me.N_METRICS):
            feats[i, :, j] = rng.uniform(0.1, 0.5) * dist + rng.normal(0, 0.2, L)
    tables = learn.PairTables(None, ls, feats - feats.min() + 0.1, gr.pairwise_l1_table(ls),
                              edges)
    loss_terms = 1.0 / V - rng.uniform(0, 2.0 / V, (V, L))
    return learn.TrainingSample(tables, 1, None, None, loss_terms), rng
