"""Experiment runners behind the paper's figures.

Every runner is a pure function of (dataset, configuration, seed) so the
benchmarks under ``benchmarks/`` are thin wrappers that pick the paper's
parameter points and print the resulting rows/series.

* :func:`evaluate_classifier` -- train/evaluate one model, one record.
* :func:`accuracy_memory_curve` -- Fig. 3: accuracy vs. memory footprint
  across model families and sizes.
* :func:`initialization_comparison` -- Fig. 5: clustering vs. random
  initialization accuracy-per-epoch curves.
* :func:`cluster_ratio_sweep` -- Fig. 6: accuracy vs. the initial cluster
  ratio ``R``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from typing import TYPE_CHECKING

from repro.data.datasets import Dataset
from repro.hdc.hypervector import _as_generator

if TYPE_CHECKING:  # pragma: no cover - import-time only for type checkers
    from repro.baselines.base import HDCClassifier, TrainingHistory
    from repro.core.config import MEMHDConfig


#: Signature of a model factory used by the sweep runners: it receives the
#: dataset's feature/class counts and a seed and returns a fresh classifier.
ModelFactory = Callable[[int, int, int], "HDCClassifier"]


@dataclass
class ExperimentRecord:
    """Result of training and evaluating one classifier on one dataset."""

    model: str
    label: str
    dataset: str
    test_accuracy: float
    train_accuracy: float
    memory_kib: float
    am_memory_kib: float
    history: Optional[TrainingHistory] = None
    extras: Dict[str, object] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, object]:
        return {
            "model": self.model,
            "label": self.label,
            "dataset": self.dataset,
            "test_accuracy": self.test_accuracy,
            "train_accuracy": self.train_accuracy,
            "memory_kib": self.memory_kib,
            "am_memory_kib": self.am_memory_kib,
            **self.extras,
        }


def evaluate_classifier(
    model: HDCClassifier,
    dataset: Dataset,
    label: Optional[str] = None,
    record_history: bool = True,
) -> ExperimentRecord:
    """Fit ``model`` on the dataset's train split and score the test split."""
    history = model.fit(dataset.train_features, dataset.train_labels)
    test_accuracy = model.score(dataset.test_features, dataset.test_labels)
    train_accuracy = (
        history.final_train_accuracy
        if history.train_accuracy
        else model.score(dataset.train_features, dataset.train_labels)
    )
    report = model.memory_report()
    return ExperimentRecord(
        model=model.name,
        label=label or model.name,
        dataset=dataset.name,
        test_accuracy=test_accuracy,
        train_accuracy=train_accuracy,
        memory_kib=report.total_kib,
        am_memory_kib=report.am_kib,
        history=history if record_history else None,
    )


def accuracy_memory_curve(
    dataset: Dataset,
    factories: Sequence[Tuple[str, ModelFactory]],
    trials: int = 1,
    rng: Optional[Union[int, np.random.Generator]] = None,
) -> List[ExperimentRecord]:
    """Fig. 3 runner: one record per (factory, averaged over trials).

    Each factory is called with ``(num_features, num_classes, seed)``; the
    per-trial test accuracies are averaged and the memory footprint is taken
    from the first trial (it is deterministic given the configuration).
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    gen = _as_generator(rng)
    records: List[ExperimentRecord] = []
    for label, factory in factories:
        trial_records = []
        for _ in range(trials):
            seed = int(gen.integers(0, 2**31 - 1))
            model = factory(dataset.num_features, dataset.num_classes, seed)
            trial_records.append(
                evaluate_classifier(model, dataset, label=label, record_history=False)
            )
        base = trial_records[0]
        base.test_accuracy = float(
            np.mean([record.test_accuracy for record in trial_records])
        )
        base.train_accuracy = float(
            np.mean([record.train_accuracy for record in trial_records])
        )
        base.extras["trials"] = trials
        base.extras["test_accuracy_std"] = float(
            np.std([record.test_accuracy for record in trial_records])
        )
        records.append(base)
    return records


def initialization_comparison(
    dataset: Dataset,
    config: MEMHDConfig,
    rng: Optional[Union[int, np.random.Generator]] = None,
) -> Dict[str, TrainingHistory]:
    """Fig. 5 runner: training curves for clustering vs. random initialization.

    Both runs share the same dimensions, columns, learning rate and epochs;
    only the initialization method differs.  The histories include the
    post-initialization accuracy (``initial_accuracy``) the figure annotates.
    """
    from repro.core.model import MEMHDModel

    gen = _as_generator(rng)
    histories: Dict[str, TrainingHistory] = {}
    for method in ("clustering", "random"):
        seed = int(gen.integers(0, 2**31 - 1))
        model = MEMHDModel(
            dataset.num_features,
            dataset.num_classes,
            config.with_updates(init_method=method),
            rng=seed,
        )
        histories[method] = model.fit(
            dataset.train_features,
            dataset.train_labels,
            validation=(dataset.test_features, dataset.test_labels),
        )
    return histories


def cluster_ratio_sweep(
    dataset: Dataset,
    config: MEMHDConfig,
    ratios: Sequence[float],
    rng: Optional[Union[int, np.random.Generator]] = None,
) -> Dict[float, float]:
    """Fig. 6 runner: test accuracy as a function of the cluster ratio R."""
    from repro.core.model import MEMHDModel

    gen = _as_generator(rng)
    results: Dict[float, float] = {}
    for ratio in ratios:
        seed = int(gen.integers(0, 2**31 - 1))
        model = MEMHDModel(
            dataset.num_features,
            dataset.num_classes,
            config.with_updates(cluster_ratio=float(ratio)),
            rng=seed,
        )
        model.fit(dataset.train_features, dataset.train_labels)
        results[float(ratio)] = model.score(
            dataset.test_features, dataset.test_labels
        )
    return results
