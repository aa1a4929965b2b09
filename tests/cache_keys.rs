//! Cache keys are part of the persisted and peer-to-peer state: spill files
//! are named by them and mesh peers answer by them. A key therefore must
//! keep naming the same algorithm across releases, so the discriminants
//! `pattern_key` hashes are pinned here for one fixed pattern.

use spectral_envelope_repro::service::cache::pattern_key;
use spectral_envelope_repro::service::proto::{parse_algorithm, ALGORITHMS};

/// `(wire name, key uncompressed, key compressed)` of `grid2d(5, 4)`.
const PINNED: [(&str, u64, u64); 10] = [
    ("spectral", 0x803d26d28e25a5b6, 0x9f37eddb9914efd7),
    ("tracemin", 0x1e395262b44fd638, 0x3d34196bbf3f2059),
    ("rcm", 0xf546b9ea2ebc2c71, 0xd64bf2e123cce250),
    ("gps", 0xa648a4221ba71430, 0xc5436b2b26965e51),
    ("gk", 0xcf3b3c9aa13abdf7, 0xb0407591964b73d6),
    ("sloan", 0x313f110a7b108d75, 0x12444a0170214354),
    ("hybrid", 0xe240fb4267fb7534, 0x013bc24b72eabf55),
    ("mindeg", 0xbc357df2da7a06ba, 0xdb3044fbe56950db),
    ("nd", 0x6d37682ac764ee79, 0x4e3ca121bc75a458),
    ("identity", 0x9342e57a54e65cf3, 0x74481e7149f712d2),
];

#[test]
fn pattern_keys_are_pinned_for_every_wire_name() {
    let g = meshgen::grid2d(5, 4);
    let names: Vec<&str> = ALGORITHMS.iter().map(|&(name, _)| name).collect();
    let pinned: Vec<&str> = PINNED.iter().map(|&(name, _, _)| name).collect();
    assert_eq!(names, pinned, "the vocabulary changed; pin the new name");
    for (name, plain, compressed) in PINNED {
        let alg = parse_algorithm(name).expect("a wire name");
        assert_eq!(pattern_key(&g, alg, false), plain, "{name}");
        assert_eq!(pattern_key(&g, alg, true), compressed, "{name} compressed");
    }
}
