"""The verify suites' ids, apart from `verify` so the CLI loads no engine."""

VERIFY_IDS = ("cor2.4", "kk-remark", "lem3.2", "prop2.1", "prop3.3",
              "thm2.2", "thm2.3", "thm3.1", "thm4.3", "thm5.1", "thm6.1")
