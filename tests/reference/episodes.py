"""The span scan that built ``EpisodeSampler``'s query pool.

:meth:`repro.data.episodes.EpisodeSampler._query_candidates` reads a
label → indices map built once per sampler; this oracle rescans every
pool sentence's spans per episode, and the parity test requires both
to sample the same episodes.
"""

from repro.data.episodes import EpisodeSampler


class ScanEpisodeSampler(EpisodeSampler):
    """An :class:`EpisodeSampler` whose query pool comes from a full scan."""

    def _query_candidates(self, support_idx, types):
        chosen = set(support_idx)
        type_set = set(types)
        return [
            i
            for i in range(len(self._pool))
            if i not in chosen
            and any(s.label in type_set for s in self._pool[i].spans)
        ]
