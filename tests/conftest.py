"""One hypothesis profile for every property test: the same examples on each
run, no example database written to disk, and no per-example deadline.

Hypothesis still writes `.hypothesis/constants/` under the working directory
without a database, so its home is a temporary directory of the test session,
removed when the session ends; a test run leaves the checkout clean."""

import tempfile

from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

settings.register_profile("chromoduli", derandomize=True, database=None, deadline=None)
settings.load_profile("chromoduli")

_HYPOTHESIS_HOME = tempfile.TemporaryDirectory(prefix="chromoduli-hypothesis-")
set_hypothesis_home_dir(_HYPOTHESIS_HOME.name)
