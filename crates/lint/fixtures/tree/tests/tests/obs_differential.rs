//! Seeded fixture harness: forgets the catalog sweep and names a ghost.

#[test]
fn partial_coverage() {
    let _ = Algorithm::by_name("ALG_MISSING");
}
