"""Branch direction predictors.

The Appendix-A palette does not vary the predictor, so every core uses the
same hybrid (bimodal + gshare with a chooser) by default; the simpler
predictors remain available for ablations and tests.
"""

from typing import Dict, Type, Union

Predictor = Union["BimodalPredictor", "GsharePredictor", "HybridPredictor"]


class BimodalPredictor:
    """Classic table of 2-bit saturating counters indexed by PC."""

    def __init__(self, entries: int = 4096) -> None:
        if entries < 1 or (entries & (entries - 1)):
            raise ValueError("entries must be a positive power of two")
        self._mask = entries - 1
        self._table = [2] * entries  # weakly taken

    def predict(self, pc: int) -> bool:
        """Predicted direction for the branch at ``pc``."""
        return self._table[(pc >> 2) & self._mask] >= 2

    def update(self, pc: int, taken: bool) -> bool:
        """Train on the branch's actual outcome; returns whether the
        prediction made before training was right."""
        index = (pc >> 2) & self._mask
        counter = self._table[index]
        if taken:
            if counter < 3:
                self._table[index] = counter + 1
        elif counter > 0:
            self._table[index] = counter - 1
        return (counter >= 2) == taken


class GsharePredictor:
    """Global-history predictor: PC xor history indexes 2-bit counters."""

    def __init__(self, entries: int = 4096, history_bits: int = 10) -> None:
        if entries < 1 or (entries & (entries - 1)):
            raise ValueError("entries must be a positive power of two")
        if history_bits < 1:
            raise ValueError("history_bits must be >= 1")
        self._mask = entries - 1
        self._table = [2] * entries
        self._history = 0
        self._history_mask = (1 << history_bits) - 1

    def _index(self, pc: int) -> int:
        return ((pc >> 2) ^ self._history) & self._mask

    def predict(self, pc: int) -> bool:
        """Predicted direction for the branch at ``pc``."""
        return self._table[self._index(pc)] >= 2

    def update(self, pc: int, taken: bool) -> bool:
        """Train counters and shift the branch outcome into the history;
        returns whether the prediction made before training was right."""
        history = self._history
        index = ((pc >> 2) ^ history) & self._mask
        counter = self._table[index]
        if taken:
            if counter < 3:
                self._table[index] = counter + 1
        elif counter > 0:
            self._table[index] = counter - 1
        self._history = ((history << 1) | int(taken)) & self._history_mask
        return (counter >= 2) == taken


class HybridPredictor:
    """Tournament predictor: a chooser table selects bimodal vs. gshare.

    The chooser is trained toward whichever component was correct when they
    disagree, as in the Alpha 21264 scheme.
    """

    def __init__(self, entries: int = 4096, history_bits: int = 10) -> None:
        self.bimodal = BimodalPredictor(entries)
        self.gshare = GsharePredictor(entries, history_bits)
        self._mask = entries - 1
        self._chooser = [2] * entries  # >=2 prefers gshare

    def predict(self, pc: int) -> bool:
        """Direction from whichever component the chooser prefers."""
        if self._chooser[(pc >> 2) & self._mask] >= 2:
            return self.gshare.predict(pc)
        return self.bimodal.predict(pc)

    def update(self, pc: int, taken: bool) -> bool:
        """Train both components and the chooser; returns whether the
        prediction made before training was right."""
        # the components train independent tables, so each one's answer
        # before training is unaffected by the other's training
        bimodal_correct = self.bimodal.update(pc, taken)
        gshare_correct = self.gshare.update(pc, taken)
        index = (pc >> 2) & self._mask
        chose_gshare = self._chooser[index] >= 2
        if gshare_correct != bimodal_correct:
            counter = self._chooser[index]
            if gshare_correct:
                if counter < 3:
                    self._chooser[index] = counter + 1
            elif counter > 0:
                self._chooser[index] = counter - 1
        return gshare_correct if chose_gshare else bimodal_correct


PREDICTORS: Dict[str, Type[Predictor]] = {
    "bimodal": BimodalPredictor,
    "gshare": GsharePredictor,
    "hybrid": HybridPredictor,
}


def make_predictor(kind: str, entries: int = 4096) -> Predictor:
    """Factory used by :class:`~repro.uarch.config.CoreConfig`."""
    try:
        cls = PREDICTORS[kind]
    except KeyError:
        raise ValueError(
            f"unknown predictor {kind!r}; expected one of {sorted(PREDICTORS)}"
        ) from None
    return cls(entries)
