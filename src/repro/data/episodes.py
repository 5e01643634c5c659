"""N-way K-shot episode construction for sequence labeling (paper §3.1).

Classification datasets can sample K instances per class directly; in NER
a sentence carries an unknown number of entangled entity mentions, so the
paper adopts a *greedy-including* procedure:

1. start from an empty support set;
2. repeatedly sample a sentence and include it only if it brings a gain
   in "way" (a new class, while fewer than N classes are present) or in
   "shot" (a class still below K);
3. stop once N classes each have at least K mentions;
4. prune so the set is minimal — removing any sentence would drop some
   class below K.

The query set is drawn from the remaining sentences containing at least
one mention of the task's N classes.  Mentions of classes outside the
task are relabelled to O in both sets.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from repro.data.sentence import Dataset, Sentence
from repro.data.tags import TagScheme


@dataclass(frozen=True)
class Episode:
    """One few-shot task: support + query sentences over N bound types."""

    types: tuple[str, ...]
    support: tuple[Sentence, ...]
    query: tuple[Sentence, ...]

    @property
    def n_way(self) -> int:
        return len(self.types)

    @property
    def scheme(self) -> TagScheme:
        """The BIO tag scheme over this task's ordered type binding."""
        return TagScheme(self.types)

    def support_counts(self) -> Counter:
        counts: Counter = Counter()
        for sent in self.support:
            for span in sent.spans:
                counts[span.label] += 1
        return counts


class EpisodeSampler:
    """Samples greedy-including N-way K-shot episodes from a dataset."""

    def __init__(self, dataset: Dataset, n_way: int, k_shot: int,
                 query_size: int = 8, seed: int = 0,
                 max_attempts: int = 4000):
        if n_way < 1 or k_shot < 1:
            raise ValueError(f"n_way and k_shot must be >= 1, got {n_way}, {k_shot}")
        self.dataset = dataset
        self.n_way = n_way
        self.k_shot = k_shot
        self.query_size = query_size
        self.max_attempts = max_attempts
        self._rng = np.random.default_rng(seed)
        self._pool = [s for s in dataset if s.spans]
        if len(dataset.types) < n_way:
            raise ValueError(
                f"dataset {dataset.name} has {len(dataset.types)} types, "
                f"cannot build {n_way}-way episodes"
            )
        if not self._pool:
            raise ValueError(f"dataset {dataset.name} has no annotated sentences")
        # Label -> ascending pool indices of the sentences mentioning it,
        # so the query pool is found without rescanning every span.
        by_label: dict[str, list[int]] = {}
        for i, sent in enumerate(self._pool):
            for label in {span.label for span in sent.spans}:
                by_label.setdefault(label, []).append(i)
        self._by_label = {
            label: np.array(indices) for label, indices in by_label.items()
        }

    # ------------------------------------------------------------------
    def sample(self) -> Episode:
        """Build one episode; raises RuntimeError if the pool is too sparse."""
        rng = self._rng
        for _attempt in range(8):
            episode = self._try_sample(rng)
            if episode is not None:
                return episode
        raise RuntimeError(
            f"could not assemble a {self.n_way}-way {self.k_shot}-shot episode "
            f"from {self.dataset.name} after repeated attempts"
        )

    def sample_many(self, n_episodes: int) -> list[Episode]:
        return [self.sample() for _ in range(n_episodes)]

    # ------------------------------------------------------------------
    def reseed(self, seed: int) -> None:
        """Restart the episode stream from ``seed``.

        Used by the guarded-training escalation ladder to steer away
        from a pathological task sequence.
        """
        self._rng = np.random.default_rng(seed)

    def rng_state(self) -> dict:
        """JSON-serialisable generator state (for training checkpoints)."""
        return self._rng.bit_generator.state

    def set_rng_state(self, state: dict) -> None:
        """Restore a state captured by :meth:`rng_state`."""
        self._rng.bit_generator.state = state

    # ------------------------------------------------------------------
    def _try_sample(self, rng: np.random.Generator) -> Episode | None:
        order = rng.permutation(len(self._pool))
        support_idx: list[int] = []
        ways: list[str] = []
        counts: Counter = Counter()

        def satisfied() -> bool:
            return len(ways) == self.n_way and all(
                counts[w] >= self.k_shot for w in ways
            )

        for pos in range(min(len(order), self.max_attempts)):
            if satisfied():
                break
            idx = int(order[pos])
            sent = self._pool[idx]
            # First-appearance order within the sentence defines which new
            # types may claim the remaining way slots; anything beyond
            # capacity is relabelled O later (restrict_labels).
            seen: list[str] = []
            for span in sorted(sent.spans, key=lambda s: (s.start, s.end)):
                if span.label not in seen:
                    seen.append(span.label)
            new_types = [t for t in seen if t not in ways]
            capacity = self.n_way - len(ways)
            admitted = new_types[:capacity]
            gain_way = bool(admitted)
            gain_shot = any(
                t in ways and counts[t] < self.k_shot for t in seen
            )
            if not (gain_way or gain_shot):
                continue
            support_idx.append(idx)
            ways.extend(admitted)
            for span in sent.spans:
                if span.label in ways:
                    counts[span.label] += 1
        if not satisfied():
            return None

        support_idx = self._prune(support_idx, ways)
        types = tuple(ways)
        query_candidates = self._query_candidates(support_idx, types)
        if not len(query_candidates):
            return None
        take = min(self.query_size, len(query_candidates))
        q_idx = rng.choice(len(query_candidates), size=take, replace=False)
        query = tuple(
            self._pool[query_candidates[int(i)]].restrict_labels(types)
            for i in q_idx
        )
        support = tuple(
            self._pool[i].restrict_labels(types) for i in support_idx
        )
        return Episode(types=types, support=support, query=query)

    def _query_candidates(self, support_idx: list[int],
                          types: tuple[str, ...]) -> np.ndarray:
        """Ascending pool indices outside the support set that mention at
        least one of ``types``: the episode's query pool."""
        wanted = np.zeros(len(self._pool), dtype=bool)
        for label in types:
            wanted[self._by_label[label]] = True
        wanted[support_idx] = False
        return np.flatnonzero(wanted)

    def _prune(self, support_idx: list[int], ways: list[str]) -> list[int]:
        """Drop sentences whose removal keeps every way at >= K shots."""
        kept = list(support_idx)
        changed = True
        while changed:
            changed = False
            for idx in list(kept):
                trial = [i for i in kept if i != idx]
                counts: Counter = Counter()
                present: set[str] = set()
                for i in trial:
                    for span in self._pool[i].spans:
                        if span.label in ways:
                            counts[span.label] += 1
                            present.add(span.label)
                if len(present) == len(ways) and all(
                    counts[w] >= self.k_shot for w in ways
                ):
                    kept = trial
                    changed = True
                    break
        return kept
