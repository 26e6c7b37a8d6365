from benchmarks.suite.cli import main

raise SystemExit(main())
