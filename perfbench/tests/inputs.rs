//! The benchmark's inputs are a pure function of the workload seed, and
//! the fleet's images share no function content, so a fleet pass can
//! never be served by another image's cache entries.

use dtaint_dataflow::cache::{env_digest, function_content_hash, sym_salt};
use dtaint_perfbench::inputs::{fleet, fleet_releases, large_image, Image, FLEET_IMAGES};
use dtaint_perfbench::oracle::single_binary;
use dtaint_symex::SymexConfig;
use std::collections::BTreeSet;

fn bytes(images: &[Image]) -> Vec<Vec<u8>> {
    images.iter().map(|i| i.bytes.clone()).collect()
}

#[test]
fn same_seed_gives_byte_identical_images() {
    assert_eq!(bytes(&fleet(11, 6)), bytes(&fleet(11, 6)));
    let (a, b): (Vec<Image>, Vec<Image>) = fleet_releases(11, 4).into_iter().unzip();
    let (c, d): (Vec<Image>, Vec<Image>) = fleet_releases(11, 4).into_iter().unzip();
    assert_eq!(bytes(&a), bytes(&c));
    assert_eq!(bytes(&b), bytes(&d));
    // The release's base is the fleet image itself.
    assert_eq!(bytes(&a), bytes(&fleet(11, 4)));
    assert_eq!(large_image(11).bytes, large_image(11).bytes);
}

#[test]
fn another_seed_gives_other_images() {
    let one = bytes(&fleet(11, 4));
    let two = bytes(&fleet(12, 4));
    assert!(one.iter().zip(&two).all(|(a, b)| a != b));
    let (base, updated): (Vec<Image>, Vec<Image>) = fleet_releases(11, 4).into_iter().unzip();
    assert!(base.iter().zip(&updated).all(|(a, b)| a.bytes != b.bytes));
}

/// Symex-level content keys of every function in an image, as the
/// pipeline's incremental cache computes them.
fn content_keys(image: &Image) -> BTreeSet<u64> {
    let (_, bin) = single_binary(&image.bytes).expect("fleet image unpacks");
    let salt = sym_salt(env_digest(&bin), &SymexConfig::default());
    bin.functions()
        .iter()
        .map(|s| {
            let code = bin.bytes_at(s.addr, s.size).expect("function bytes are mapped");
            function_content_hash(salt, s.addr, &s.name, &code)
        })
        .collect()
}

fn assert_disjoint(images: &[Image]) {
    let files: BTreeSet<u64> = images.iter().map(|i| dtaint_store::fnv64(&i.bytes)).collect();
    assert_eq!(files.len(), images.len(), "two images have the same file hash");
    let mut seen: BTreeSet<u64> = BTreeSet::new();
    for image in images {
        let keys = content_keys(image);
        assert!(seen.is_disjoint(&keys), "{} shares function content", image.name);
        seen.extend(keys);
    }
}

#[test]
fn fleet_images_share_no_content_hash() {
    assert_disjoint(&fleet(5, FLEET_IMAGES));
    let (_, updated): (Vec<Image>, Vec<Image>) =
        fleet_releases(5, FLEET_IMAGES).into_iter().unzip();
    assert_disjoint(&updated);
}
