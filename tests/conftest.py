"""One Hypothesis profile for every property test: derandomized, with no
deadline and no example database, so each run draws the same examples and
writes nothing.  A test's ``@settings`` sets only its ``max_examples``;
``tests/test_battery.py`` checks both."""

from hypothesis import settings

# on Hypothesis's own defaults, not on whatever profile the environment
# picked (the CI variable selects its "ci" profile)
settings.register_profile("singskein", settings.get_profile("default"), deadline=None, derandomize=True, database=None)
settings.load_profile("singskein")
