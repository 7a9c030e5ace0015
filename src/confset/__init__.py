"""Set-valued classification with simultaneous outlier detection.

Given labeled training data, the procedure scores a test point against each
class with a variance-scaled squared distance, converts the scores to
conformal p-values against the class's own training scores, applies a
step-up multiplicity adjustment across the m test points within each class,
and keeps every class whose adjusted p-value clears a level-dependent
threshold.
The result is a label set per test point: a singleton is a confident
classification, a larger set an ambiguous one, and the empty set flags the
point as an outlier belonging to no known class. Acceptance thresholds are
calibrated so that, per class, wrongly excluded true labels are controlled
at the target rate in the false-discovery sense.

Quick start::

    import confset

    config = confset.multi_class_config(p=100, n_k=200, rho=0.5)
    train, test = confset.generate(config)
    pvals, sets = confset.predict(train, test, alpha=0.05)
    report = confset.evaluate_sets(sets, test.truth)
    print(confset.render_results([report]))

The package exports ``__version__`` and every name in its modules' ``__all__``.
"""

from .core import *  # noqa: F401,F403
from .scoring import *  # noqa: F401,F403
from .conformal import *  # noqa: F401,F403
from .metrics import *  # noqa: F401,F403
from .datagen import *  # noqa: F401,F403
from .io import *  # noqa: F401,F403
from .experiment import *  # noqa: F401,F403
from .validation import *  # noqa: F401,F403
from . import core, scoring, conformal, metrics, datagen, io, experiment, validation

__version__ = "0.1.0"

__all__ = [
    "__version__",
    *core.__all__,
    *scoring.__all__,
    *conformal.__all__,
    *metrics.__all__,
    *datagen.__all__,
    *io.__all__,
    *experiment.__all__,
    *validation.__all__,
]
