"""Deterministic synthetic corpus generation for end-to-end tests.

The generated vocabulary is stem-stable (every lemma ends in a digit, which
no stemming rule touches), so dictionary lookups see exactly the tokens the
tokenizer produces. Words come in near-synonym pairs whose primary senses
are adjacent graph nodes, giving paraphrased peers a real semantic signal.
"""

from __future__ import annotations

import random
from pathlib import Path

import numpy as np


def lemma(k: int) -> str:
    return f"w{k:03d}"


def oov_token(k: int) -> str:
    return f"x{k:03d}"


def node_id(i: int) -> str:
    return f"{i:08d}-n"


def write_graph(path: Path, n_nodes: int, extra_edges: int, seed: int) -> None:
    """Ring over all nodes (connected, no dangling) plus random chords."""
    rng = np.random.default_rng(seed)
    lines = ["# synthetic relation file"]
    for i in range(n_nodes):
        lines.append(f"u:{node_id(i)} v:{node_id((i + 1) % n_nodes)} t:ring")
    for _ in range(extra_edges):
        i, j = rng.integers(0, n_nodes, size=2)
        if i != j:
            lines.append(f"u:{node_id(int(i))} v:{node_id(int(j))} t:chord w:1")
    path.write_text("\n".join(lines) + "\n", "utf-8")


def symmetric_relation_lines() -> list[str]:
    """A ring over 24 nodes plus the chords (0, 12), (3, 9) and (15, 21).

    Mirror senses of this graph have equal walk weights in real
    arithmetic, so the order in which the walk sums its terms decides how
    rounding breaks their ties.
    """
    edges = [(i, (i + 1) % 24) for i in range(24)] + [(0, 12), (3, 9), (15, 21)]
    return [f"u:{node_id(i)} v:{node_id(j)}" for i, j in edges]


def relist_lines(lines: list[str], seed: int) -> list[str]:
    """The same edges listed another way: lines shuffled, about half of
    them with u and v swapped, some repeated, and a self-loop on a few
    listed nodes (which adds no edge)."""
    rng = random.Random(seed)
    out = []
    for line in lines:
        u, v = (token.partition(":")[2] for token in line.split()[:2])
        if rng.random() < 0.5:
            u, v = v, u
        out += [f"u:{u} v:{v}"] * rng.choice((1, 1, 2))
        if rng.random() < 0.1:
            out.append(f"u:{u} v:{u}")
    rng.shuffle(out)
    return out


def primary_sense(k: int, n_nodes: int) -> int:
    # Pair partners (2m, 2m+1) land on adjacent ring nodes.
    pair, side = divmod(k, 2)
    return (pair * 29 % (n_nodes - 1)) + side


def write_dictionary(path: Path, n_words: int, n_nodes: int, seed: int) -> list[str]:
    rng = np.random.default_rng(seed)
    lines = []
    for k in range(n_words):
        senses = [primary_sense(k, n_nodes)]
        if k % 3 == 0:  # a third of the vocabulary is polysemous
            senses.append(int(rng.integers(0, n_nodes)))
        entry = " ".join(f"{node_id(s)}:{max(1, 5 - i)}" for i, s in enumerate(senses))
        lines.append(f"{lemma(k)} {entry}")
    path.write_text("\n".join(lines) + "\n", "utf-8")
    return [lemma(k) for k in range(n_words)]


def partner(word: str) -> str:
    k = int(word[1:])
    return lemma(k ^ 1)


def _sentences(tokens: list[str], per_sentence: int = 8) -> str:
    out = []
    for i in range(0, len(tokens), per_sentence):
        out.append(" ".join(tokens[i : i + per_sentence]) + ".")
    return "\n".join(out) + "\n"


def write_corpus(
    base: Path,
    vocab: list[str],
    topics: tuple[str, ...] = ("d1001",),
    n_systems: int = 50,
    n_models: int = 4,
    tokens_per_model: int = 24,
    seed: int = 7,
) -> tuple[Path, Path, list[str], np.ndarray]:
    """Write models/ and peers/ trees; peer quality rises with system index."""
    rng = np.random.default_rng(seed)
    peers_dir = base / "peers"
    models_dir = base / "models"
    peers_dir.mkdir(parents=True, exist_ok=True)
    models_dir.mkdir(parents=True, exist_ok=True)
    systems = [f"sys{s:02d}" for s in range(n_systems)]
    qualities = np.linspace(0.05, 0.95, n_systems)

    for topic in topics:
        pool = [vocab[int(i)] for i in rng.choice(len(vocab), size=min(40, len(vocab)), replace=False)]
        model_tokens: list[list[str]] = []
        for m in range(n_models):
            tokens = [pool[int(i)] for i in rng.integers(0, len(pool), size=tokens_per_model)]
            model_tokens.append(tokens)
            (models_dir / f"{topic}.M{m}.txt").write_text(_sentences(tokens), "utf-8")
        for s, system in enumerate(systems):
            q = qualities[s]
            source = model_tokens[s % n_models]
            out = []
            for token in source:
                draw = rng.random()
                if draw < q:
                    out.append(token)
                elif draw < q + (1 - q) * 0.5:
                    out.append(partner(token))
                elif draw < q + (1 - q) * 0.8:
                    out.append(vocab[int(rng.integers(0, len(vocab)))])
                else:
                    out.append(oov_token(int(rng.integers(0, 50))))
            (peers_dir / f"{topic}.{system}.txt").write_text(_sentences(out), "utf-8")
    return peers_dir, models_dir, systems, qualities


def write_judgments(path: Path, systems: list[str], qualities: np.ndarray, seed: int) -> None:
    rng = np.random.default_rng(seed)
    rows = ["system,pyramid,responsiveness,readability"]
    for system, q in zip(systems, qualities):
        pyramid = float(np.clip(q + rng.normal(0.0, 0.04), 0.0, 1.0))
        responsiveness = float(np.clip(q**1.2 + rng.normal(0.0, 0.05), 0.0, 1.0))
        readability = float(np.clip(0.5 + 0.3 * q + rng.normal(0.0, 0.15), 0.0, 1.0))
        rows.append(f"{system},{pyramid:.6f},{responsiveness:.6f},{readability:.6f}")
    path.write_text("\n".join(rows) + "\n", "utf-8")


def build_synthetic_eval(
    base: Path,
    n_nodes: int = 10_000,
    n_words: int = 160,
    n_systems: int = 50,
    n_models: int = 4,
    topics: tuple[str, ...] = ("d1001",),
    seed: int = 202,
) -> dict:
    base.mkdir(parents=True, exist_ok=True)
    graph_path = base / "relations.txt"
    dict_path = base / "dictionary.txt"
    write_graph(graph_path, n_nodes, extra_edges=n_nodes, seed=seed)
    vocab = write_dictionary(dict_path, n_words, n_nodes, seed=seed + 1)
    peers_dir, models_dir, systems, qualities = write_corpus(
        base, vocab, topics=topics, n_systems=n_systems, n_models=n_models, seed=seed + 2
    )
    judgments = base / "judgments.csv"
    write_judgments(judgments, systems, qualities, seed=seed + 3)
    return {
        "graph": graph_path,
        "dict": dict_path,
        "peers": peers_dir,
        "models": models_dir,
        "judgments": judgments,
        "systems": systems,
        "qualities": qualities,
        "vocab": vocab,
    }
