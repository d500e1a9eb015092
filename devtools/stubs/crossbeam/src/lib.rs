//! Placeholder: unused; kept while `e2ebench/Cargo.lock` records this package.
