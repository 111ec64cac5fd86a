from .cli import main

if __name__ == "__main__":  # importing the module, as a walk over the package does, runs nothing
    raise SystemExit(main())
