"""One hypothesis profile for every property test: the same examples on each
run, no example database written to disk, and no per-example deadline."""

from hypothesis import settings

settings.register_profile("chromoduli", derandomize=True, database=None, deadline=None)
settings.load_profile("chromoduli")
