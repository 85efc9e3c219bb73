//! Cross-crate reliability integration: the §3.2 incompatibility results
//! and the §5.2 zero-error property, exercised through the full stack.

use fc_bits::BitVec;
use fc_nand::command::{Command, IscmFlags, MwsTarget};
use fc_nand::geometry::BlockAddr;
use fc_nand::ispp::ProgramScheme;
use fc_ssd::device::{SsdDevice, WriteOptions};
use fc_ssd::topology::DieId;
use fc_ssd::SsdConfig;
use flash_cosmos::reliability;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// §3.2: in-flash AND over two *conventionally stored* pages (randomized
/// + ECC) does not decode to the AND of the logical pages.
#[test]
fn in_flash_and_over_conventional_pages_is_corrupt() {
    let mut dev = SsdDevice::new(SsdConfig::tiny_test());
    let bits = dev.logical_page_bits(true);
    let mut rng = StdRng::seed_from_u64(0x0BAD);
    let a = BitVec::random(bits, &mut rng);
    let b = BitVec::random(bits, &mut rng);
    // Conventional path stripes pages; force both onto one die/block by
    // writing through the FC grouped path but with conventional metadata.
    let mut opts = WriteOptions::conventional();
    opts.placement =
        fc_ssd::ftl::PlacementHint::Grouped { group: fc_ssd::ftl::GroupKey::new(0, 0), plane: 0 };
    dev.write(0, &a, opts).unwrap();
    dev.write(1, &b, opts).unwrap();
    let (die, wl_a) = dev.locate(0).unwrap();
    let (_, wl_b) = dev.locate(1).unwrap();
    assert_eq!(wl_a.block(), wl_b.block(), "co-located for the MWS");
    // Intra-block MWS over the two *stored* (randomized, encoded) pages.
    let out = dev
        .chip_mut(die)
        .execute(Command::Mws {
            flags: IscmFlags::single_read(),
            targets: vec![MwsTarget::new(wl_a.block(), &[wl_a.wl, wl_b.wl])],
        })
        .unwrap();
    let sensed = out.into_page().unwrap();
    // Descramble with either page's keystream and decode: the payload
    // cannot match a AND b (overwhelmingly it is uncorrectable).
    let chip = dev.chip(die);
    let descrambled = chip.randomizer().derandomize(wl_a, &sensed);
    let codec = fc_ssd::ecc::PageCodec::new(fc_ssd::ecc::EccConfig::small());
    let n = codec.code().n();
    let words = bits / codec.code().k();
    let stored = descrambled.slice(0, words * n);
    match codec.decode_page(&stored, bits) {
        fc_ssd::ecc::PageDecode::Uncorrectable => {} // expected
        fc_ssd::ecc::PageDecode::Corrected { data, .. } => {
            assert_ne!(data, a.and(&b), "silent success would be a miscomputation");
        }
    }
}

/// §5.2 scaled: the ESP campaign observes zero errors, the plain-SLC
/// campaign does not, and the measured SLC RBER sits in the Fig. 8 decade.
#[test]
fn validation_campaigns() {
    let esp = reliability::validate_zero_errors(4_000_000, 7);
    assert_eq!(esp.bit_errors, 0);
    assert!(esp.bits_checked >= 4_000_000);

    let slc = reliability::validate_slc_baseline(4_000_000, 7);
    assert!(slc.bit_errors > 0);
    let rber = slc.bit_errors as f64 / slc.bits_checked as f64;
    // MWS over 8 operands compounds per-page RBER roughly 8×; accept the
    // broad Fig. 8 decade.
    assert!(rber > 1e-4 && rber < 1e-1, "SLC MWS-result RBER {rber}");
}

/// ECC on the conventional path corrects injected errors until the error
/// rate exceeds the correction budget.
#[test]
fn conventional_path_ecc_protects_reads() {
    let mut dev = SsdDevice::new_noisy(SsdConfig::tiny_test());
    let bits = dev.logical_page_bits(true);
    let mut rng = StdRng::seed_from_u64(0xECC);
    let data = BitVec::random(bits, &mut rng);
    dev.write(42, &data, WriteOptions::conventional()).unwrap();
    let (die, addr) = dev.locate(42).unwrap();
    dev.chip_mut(die).cycle_block(addr.block(), 10_000).unwrap();
    dev.set_retention_months(12.0);
    for _ in 0..25 {
        assert_eq!(dev.read(42).unwrap(), data);
    }
}

/// The copyback path (§2.1 footnote 3) moves pages without off-chip
/// transfer and is exact on clean chips.
#[test]
fn copyback_via_chip_commands() {
    let mut dev = SsdDevice::new(SsdConfig::tiny_test());
    let bits = dev.logical_page_bits(false);
    let mut rng = StdRng::seed_from_u64(0xC0B);
    let data = BitVec::random(bits, &mut rng);
    dev.write(1, &data, WriteOptions::flash_cosmos(fc_ssd::ftl::GroupKey::new(3, 0), 0, false))
        .unwrap();
    let (die, src) = dev.locate(1).unwrap();
    let dst = BlockAddr::new(src.plane, src.block + 1).wordline(0);
    dev.chip_mut(die).execute(Command::Copyback { from: src, to: dst }).unwrap();
    assert_eq!(dev.chip(die).page_raw(dst).unwrap(), &data);
}

/// Erase-verify (the intra-block MWS precedent in commodity chips, §4.1)
/// works through the device stack.
#[test]
fn erase_verify_through_device() {
    let mut dev = SsdDevice::new(SsdConfig::tiny_test());
    let die = DieId::new(0, 0);
    let blk = BlockAddr::new(0, 5);
    let verify = dev.chip_mut(die).execute(Command::EraseVerify { block: blk }).unwrap();
    assert!(verify.into_page().unwrap().is_all_ones());
    let bits = dev.config().page_bits();
    dev.chip_mut(die)
        .execute(Command::Program {
            addr: blk.wordline(0),
            data: BitVec::zeros(bits),
            scheme: ProgramScheme::Slc,
            randomize: false,
        })
        .unwrap();
    let verify = dev.chip_mut(die).execute(Command::EraseVerify { block: blk }).unwrap();
    assert!(!verify.into_page().unwrap().is_all_ones());
}
