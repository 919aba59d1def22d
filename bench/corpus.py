"""Seeded corpus generators for the benchmark workloads.

The semantic worlds have the shape of ``tests/synth.py`` (a ring over all
nodes plus as many random chords, a 160-word vocabulary in near-synonym
pairs on adjacent nodes, peers whose quality rises with the system index).
They are kept here rather than imported so that the benchmark's inputs do
not move when the test helpers change.

Every token is lowercase letters followed by digits. Porter stemming
leaves such tokens unchanged and each line is one sentence, so the token
lists the generator returns are exactly what the program's tokenizer must
produce; the correctness checks count grams from them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# Corpus make-up shared by every seed; the seed picks words and places.
SEMANTIC_WORDS = 160  # dictionary size, in near-synonym pairs
# A semantic model summary is MODEL_TOKENS distinct pool words, a third of
# them polysemous, and a peer's random words are as polysemous as the words
# they replace, so that the number of walked seed sets, and with it the
# scoring time, varies little with the seed (README.md, Workloads).
MODEL_TOKENS = 24
MODEL_POLYSEMOUS = 8
POOL_POLYSEMOUS, POOL_PLAIN = 13, 27  # the words one topic draws from
SUMMARY_TOKENS = 100  # tokens per summary on the lexical world
LEXICAL_WORDS = 4000  # Zipf background vocabulary of the lexical world
TOPIC_POOL = 120  # content words of one lexical topic


def node_id(i: int) -> str:
    return f"{i:08d}-n"


@dataclass
class Corpus:
    peers: Path
    models: Path
    judgments: Path
    topics: list[str]
    systems: list[str]
    qualities: list[float]
    # (topic, model id) and (topic, system id) -> sentences of tokens
    model_texts: dict[tuple[str, str], list[list[str]]] = field(default_factory=dict)
    peer_texts: dict[tuple[str, str], list[list[str]]] = field(default_factory=dict)
    graph: Path | None = None
    dictionary: Path | None = None
    n_nodes: int = 0
    edges: np.ndarray | None = None  # (k, 2) node numbers, as written
    lemma_senses: dict[str, list[int]] = field(default_factory=dict)

    @property
    def pairs(self) -> int:
        """(peer, model) pairs one scoring pass compares."""
        return len(self.peer_texts) * len(self.model_texts) // len(self.topics)


def _write_text(path: Path, sentences: list[list[str]]) -> None:
    path.write_text("".join(" ".join(s) + ".\n" for s in sentences), "utf-8")


def _split(tokens: list[str], per_sentence: int) -> list[list[str]]:
    return [tokens[i : i + per_sentence] for i in range(0, len(tokens), per_sentence)]


def _write_judgments(path: Path, systems: list[str], qualities, rng) -> None:
    rows = ["system,pyramid,responsiveness,readability"]
    for system, q in zip(systems, qualities):
        pyramid = float(np.clip(q + rng.normal(0.0, 0.04), 0.0, 1.0))
        responsiveness = float(np.clip(q**1.2 + rng.normal(0.0, 0.05), 0.0, 1.0))
        readability = float(np.clip(0.5 + 0.3 * q + rng.normal(0.0, 0.15), 0.0, 1.0))
        rows.append(f"{system},{pyramid:.6f},{responsiveness:.6f},{readability:.6f}")
    path.write_text("\n".join(rows) + "\n", "utf-8")


def _start(root: Path, n_systems: int) -> tuple[Path, Path, list[str], np.ndarray]:
    peers, models = root / "peers", root / "models"
    peers.mkdir(parents=True)
    models.mkdir(parents=True)
    systems = [f"sys{s:02d}" for s in range(n_systems)]
    return peers, models, systems, np.linspace(0.05, 0.95, n_systems)


def semantic_world(
    root: Path,
    seed: int,
    n_nodes: int,
    n_systems: int,
    n_models: int,
) -> Corpus:
    """Graph, dictionary, one topic of models and peers, and judgments."""
    rng = np.random.default_rng(seed)
    peers, models, systems, qualities = _start(root, n_systems)

    chords = rng.integers(0, n_nodes, size=(n_nodes, 2))
    chords = chords[chords[:, 0] != chords[:, 1]]
    ring = np.stack([np.arange(n_nodes), (np.arange(n_nodes) + 1) % n_nodes], axis=1)
    edges = np.concatenate([ring, chords])
    graph = root / "relations.txt"
    graph.write_text(
        "# synthetic relation file\n"
        + "".join(f"u:{node_id(u)} v:{node_id(v)} t:rel\n" for u, v in edges.tolist()),
        "utf-8",
    )

    vocab = [f"w{k:03d}" for k in range(SEMANTIC_WORDS)]
    lemma_senses: dict[str, list[int]] = {}
    for k, word in enumerate(vocab):
        pair, side = divmod(k, 2)  # pair partners sit on adjacent ring nodes
        senses = [pair * 29 % (n_nodes - 1) + side]
        if k % 3 == 0:  # a third of the vocabulary is polysemous
            senses.append(int(rng.integers(0, n_nodes)))
        lemma_senses[word] = list(dict.fromkeys(senses))
    dictionary = root / "dictionary.txt"
    dictionary.write_text(
        "".join(
            word + " " + " ".join(f"{node_id(s)}:{max(1, 5 - i)}" for i, s in enumerate(ss)) + "\n"
            for word, ss in lemma_senses.items()
        ),
        "utf-8",
    )

    corpus = Corpus(
        peers, models, root / "judgments.csv", ["d1001"], systems, qualities.tolist(),
        graph=graph, dictionary=dictionary, n_nodes=n_nodes, edges=edges,
        lemma_senses=lemma_senses,
    )
    # Peers keep round(q * MODEL_TOKENS) tokens of one model and replace
    # the rest half by the synonym partner, 30% by a random word and 20% by
    # an out-of-vocabulary token.
    topic = "d1001"
    polysemous = [k for k in range(SEMANTIC_WORDS) if k % 3 == 0]
    plain = [k for k in range(SEMANTIC_WORDS) if k % 3]
    pool_polysemous = rng.choice(polysemous, POOL_POLYSEMOUS, replace=False)
    pool_plain = rng.choice(plain, POOL_PLAIN, replace=False)
    sources = []
    for m in range(n_models):
        words = [*rng.choice(pool_polysemous, MODEL_POLYSEMOUS, replace=False),
                 *rng.choice(pool_plain, MODEL_TOKENS - MODEL_POLYSEMOUS, replace=False)]
        tokens = [vocab[k] for k in rng.permutation(words)]
        sources.append(tokens)
        corpus.model_texts[(topic, f"M{m}")] = _split(tokens, 8)
    for s, system in enumerate(systems):
        source = sources[s % n_models]
        kept = round(qualities[s] * len(source))
        partners = round((len(source) - kept) * 0.5)
        randoms = round((len(source) - kept) * 0.3)
        kinds = [0] * kept + [1] * partners + [2] * randoms
        kinds += [3] * (len(source) - len(kinds))
        out = []
        for token, kind in zip(source, [kinds[i] for i in rng.permutation(len(kinds))]):
            if kind == 0:
                out.append(token)
            elif kind == 1:
                out.append(f"w{int(token[1:]) ^ 1:03d}")  # near-synonym partner
            elif kind == 2:
                same = polysemous if int(token[1:]) % 3 == 0 else plain
                out.append(vocab[same[int(rng.integers(0, len(same)))]])
            else:
                out.append(f"x{int(rng.integers(0, 50)):03d}")  # out of vocabulary
        corpus.peer_texts[(topic, system)] = _split(out, 8)
    _write_all(corpus)
    _write_judgments(corpus.judgments, systems, qualities, rng)
    return corpus


def lexical_world(
    root: Path,
    seed: int,
    n_topics: int,
    n_systems: int,
    n_models: int,
) -> Corpus:
    """DUC/TAC-shaped corpus: many topics, ~100-token summaries, no graph.

    Background words follow a Zipf law; each topic has its own pool of
    content words. A peer copies each token of one model summary with its
    system's quality and otherwise draws a topic or background word.
    """
    rng = np.random.default_rng(seed)
    peers, models, systems, qualities = _start(root, n_systems)
    vocab = np.array([f"w{k:04d}" for k in range(LEXICAL_WORDS)])
    zipf = 1.0 / np.arange(1, LEXICAL_WORDS + 1)
    zipf /= zipf.sum()
    topics = [f"d{30001 + t}" for t in range(n_topics)]
    corpus = Corpus(peers, models, root / "judgments.csv", topics, systems, qualities.tolist())

    def background(k: int) -> list[str]:
        return vocab[rng.choice(LEXICAL_WORDS, size=k, p=zipf)].tolist()

    for topic in topics:
        pool = vocab[rng.choice(LEXICAL_WORDS, size=TOPIC_POOL, replace=False)].tolist()
        sources = []
        for m in range(n_models):
            own = [pool[i] for i in rng.integers(0, len(pool), size=SUMMARY_TOKENS)]
            mixed = np.where(rng.random(SUMMARY_TOKENS) < 0.7, own, background(SUMMARY_TOKENS))
            tokens = mixed.tolist()
            sources.append(tokens)
            corpus.model_texts[(topic, f"M{m}")] = _split(tokens, 20)
        for s, system in enumerate(systems):
            src = sources[s % n_models]
            keep = rng.random(len(src)) < qualities[s]
            topical = rng.random(len(src)) < 0.5
            pool_draw = [pool[i] for i in rng.integers(0, len(pool), size=len(src))]
            noise = np.where(topical, pool_draw, background(len(src)))
            tokens = np.where(keep, src, noise).tolist()
            corpus.peer_texts[(topic, system)] = _split(tokens, 20)
    _write_all(corpus)
    _write_judgments(corpus.judgments, systems, qualities, rng)
    return corpus


def _write_all(corpus: Corpus) -> None:
    for (topic, model), sentences in corpus.model_texts.items():
        _write_text(corpus.models / f"{topic}.{model}.txt", sentences)
    for (topic, system), sentences in corpus.peer_texts.items():
        _write_text(corpus.peers / f"{topic}.{system}.txt", sentences)
