//! A page-mapped flash translation layer with Flash-Cosmos placement
//! metadata (§6.3).
//!
//! Beyond the usual logical-to-physical page map, the FTL records per page:
//! the programming scheme (regular vs ESP — "the SSD firmware maintains
//! additional metadata necessary for Flash-Cosmos, such as each page's
//! programming mode"), whether the data was randomized, and whether the
//! *inverse* of the logical data was stored (the §6.1 trick that turns
//! intra-block MWS into a bitwise OR via De Morgan).
//!
//! Two allocation policies:
//! * [`PlacementHint::Striped`] — round-robin across planes (normal data,
//!   maximizes read parallelism).
//! * [`PlacementHint::Grouped`] — all pages of a group go to the *same
//!   block* of a given plane, consecutive wordlines (operands that will be
//!   combined by intra-block MWS; "the application decides which operands
//!   to be stored in the same block to minimize the number of MWS
//!   operations", §6.3); a group that fills its block continues in a
//!   fresh block on the same plane. The caller picks a fresh group's
//!   plane: the device layer spreads placement groups across dies by the
//!   per-plane block pressure the FTL tracks ([`Ftl::plane_pressures`]).

use std::collections::HashMap;

use fc_nand::ispp::ProgramScheme;
use serde::{Deserialize, Serialize};

use crate::config::SsdConfig;
use crate::topology::{PlaneId, Ppa};

/// Per-page metadata the firmware keeps for Flash-Cosmos.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PageMeta {
    /// Programming scheme used.
    pub scheme: ProgramScheme,
    /// Whether the stored bits were randomized.
    pub randomized: bool,
    /// Whether the stored bits are the inverse of the logical data.
    pub inverted: bool,
    /// Whether the stored bits are ECC-encoded.
    pub ecc: bool,
    /// Which logical page of a multi-level cell this mapping reads
    /// (`mlsense`): 0 = LSB (also the only page of single-bit storage),
    /// 1 = CSB/MSB, 2 = TLC MSB. Several logical pages of one MLC/TLC
    /// wordline alias the same physical address with distinct `ml_page`.
    #[serde(default)]
    pub ml_page: u8,
}

impl PageMeta {
    /// Metadata for the conventional storage path: regular SLC,
    /// randomized, ECC-protected, not inverted.
    pub fn conventional() -> Self {
        Self {
            scheme: ProgramScheme::Slc,
            randomized: true,
            inverted: false,
            ecc: true,
            ml_page: 0,
        }
    }

    /// Metadata for the Flash-Cosmos computation path: ESP, raw bits
    /// (no randomization, no ECC).
    pub fn flash_cosmos(inverted: bool) -> Self {
        Self {
            scheme: ProgramScheme::esp_default(),
            randomized: false,
            inverted,
            ecc: false,
            ml_page: 0,
        }
    }

    /// Metadata for one logical page of a multi-level (`mlsense`) cell:
    /// raw bits, no randomization or ECC, read as page `ml_page` of the
    /// wordline's Gray code.
    pub fn multi_level(scheme: ProgramScheme, ml_page: u8, inverted: bool) -> Self {
        Self { scheme, randomized: false, inverted, ecc: false, ml_page }
    }
}

/// Identity of one co-residency group: the pages that must share a block
/// so intra-block MWS can combine them in one sense.
///
/// The FTL keeps the group's write cursor: its plane, its open block and
/// the next wordline. A group whose block is full continues in a fresh
/// block on the same plane ([`Ftl::allocate`]), so callers name a group
/// by `(group, slot)` alone however many pages it holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct GroupKey {
    /// Application-level placement-group index.
    pub group: u64,
    /// Stripe slot within the group's operand vectors.
    pub slot: u64,
}

impl GroupKey {
    /// The key of stripe slot `slot` of placement group `group`.
    pub fn new(group: u64, slot: u64) -> Self {
        Self { group, slot }
    }
}

impl std::fmt::Display for GroupKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "g{}/s{}", self.group, self.slot)
    }
}

/// Where the FTL should place a page.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PlacementHint {
    /// Round-robin striping across all planes.
    Striped,
    /// Co-locate with other pages of `group` in one block of one plane.
    /// Pages of a group occupy consecutive wordlines, so any subset of
    /// one block can be combined with a single intra-block MWS; a full
    /// block continues in a fresh block on the group's plane.
    Grouped {
        /// Group identity (e.g. one operand set of one plane-stripe).
        group: GroupKey,
        /// Flat plane a fresh group opens its block on (an existing group
        /// stays on its plane, also when it opens a fresh block).
        plane: usize,
    },
}

/// Errors from FTL allocation.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum FtlError {
    /// The logical page already has a mapping (overwrite requires a trim
    /// in this simplified FTL).
    AlreadyMapped(u64),
    /// No free wordline is available in the required placement domain.
    OutOfSpace,
    /// A grouped allocation named a plane the SSD does not have.
    PlaneOutOfRange {
        /// The requested flat plane index.
        plane: usize,
        /// Planes in the SSD.
        planes: usize,
    },
    /// The logical page has no mapping (migration of unwritten pages).
    NotMapped(u64),
}

impl std::fmt::Display for FtlError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FtlError::AlreadyMapped(lpn) => write!(f, "logical page {lpn} is already mapped"),
            FtlError::OutOfSpace => write!(f, "no free wordlines left in the placement domain"),
            FtlError::PlaneOutOfRange { plane, planes } => {
                write!(f, "plane affinity {plane} out of range (SSD has {planes} planes)")
            }
            FtlError::NotMapped(lpn) => write!(f, "logical page {lpn} is not mapped"),
        }
    }
}

impl std::error::Error for FtlError {}

#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
struct GroupCursor {
    plane: usize,
    block: u32,
    next_wl: u32,
}

/// The page-mapped FTL: one per SSD, over every plane. All plane
/// indices crossing the API are flat plane indices. It has no lock of
/// its own; the owning device's `&mut` methods serialize every change.
#[derive(Debug, Clone)]
pub struct Ftl {
    planes: usize,
    wls_per_block: u32,
    blocks_per_plane: u32,
    /// One entry per mapped logical page: its physical address and
    /// metadata live together, so translation+metadata reads and the
    /// full-device walks ([`Ftl::iter_mapped`]) cost one lookup, not two.
    map: HashMap<u64, (Ppa, PageMeta)>,
    /// Entries of `map` whose metadata says ECC — kept in step by `put`
    /// and `trim`, so "is any ECC page mapped?" costs no walk.
    ecc_pages: usize,
    /// Next free block per plane (blocks are allocated whole).
    next_block: Vec<u32>,
    /// Striped-allocation cursor: (plane, open block, next wordline).
    stripe_cursor: usize,
    stripe_open: Vec<Option<(u32, u32)>>,
    groups: HashMap<GroupKey, GroupCursor>,
    config: SsdConfig,
}

impl Ftl {
    /// Creates an empty FTL over every plane of the SSD.
    pub fn new(config: &SsdConfig) -> Self {
        let planes = config.total_planes();
        Self {
            planes,
            wls_per_block: config.wls_per_block as u32,
            blocks_per_plane: config.blocks_per_plane as u32,
            map: HashMap::new(),
            ecc_pages: 0,
            next_block: vec![0; planes],
            stripe_cursor: 0,
            stripe_open: vec![None; planes],
            groups: HashMap::new(),
            config: config.clone(),
        }
    }

    /// Number of mapped logical pages.
    pub fn mapped_pages(&self) -> usize {
        self.map.len()
    }

    /// Number of mapped logical pages whose metadata says ECC — zero on a
    /// device that holds only Flash-Cosmos operands, which lets callers
    /// skip ECC-only walks such as the scrub scan.
    pub fn ecc_pages(&self) -> usize {
        self.ecc_pages
    }

    /// Looks up a logical page's physical address and metadata.
    pub fn lookup(&self, lpn: u64) -> Option<(Ppa, PageMeta)> {
        self.map.get(&lpn).copied()
    }

    /// Looks up a logical page's physical address.
    pub fn translate(&self, lpn: u64) -> Option<Ppa> {
        self.map.get(&lpn).map(|&(ppa, _)| ppa)
    }

    /// Looks up a logical page's metadata.
    pub fn meta(&self, lpn: u64) -> Option<PageMeta> {
        self.map.get(&lpn).map(|&(_, meta)| meta)
    }

    /// Iterates over every mapped logical page with its physical address
    /// and metadata, in no particular order — the walk that scrubbing,
    /// grown-defect discovery, and the `fc_audit` residency pass run over.
    pub fn iter_mapped(&self) -> impl Iterator<Item = (u64, Ppa, PageMeta)> + '_ {
        self.map.iter().map(|(&lpn, &(ppa, meta))| (lpn, ppa, meta))
    }

    /// Unmaps a logical page (trim). Returns the freed physical address.
    pub fn trim(&mut self, lpn: u64) -> Option<Ppa> {
        let (ppa, meta) = self.map.remove(&lpn)?;
        self.ecc_pages -= usize::from(meta.ecc);
        Some(ppa)
    }

    /// Inserts or replaces a mapping — every map insertion goes through
    /// here so the ECC page count stays exact.
    fn put(&mut self, lpn: u64, ppa: Ppa, meta: PageMeta) {
        self.ecc_pages += usize::from(meta.ecc);
        if let Some((_, old)) = self.map.insert(lpn, (ppa, meta)) {
            self.ecc_pages -= usize::from(old.ecc);
        }
    }

    /// Allocates a physical page for `lpn` and records its metadata.
    ///
    /// # Errors
    ///
    /// See [`FtlError`].
    pub fn allocate(
        &mut self,
        lpn: u64,
        hint: PlacementHint,
        meta: PageMeta,
    ) -> Result<Ppa, FtlError> {
        if self.map.contains_key(&lpn) {
            return Err(FtlError::AlreadyMapped(lpn));
        }
        let ppa = match hint {
            PlacementHint::Striped => self.allocate_striped()?,
            PlacementHint::Grouped { group, plane } => self.allocate_grouped(group, plane)?,
        };
        self.put(lpn, ppa, meta);
        Ok(ppa)
    }

    fn take_block(&mut self, plane: usize) -> Result<u32, FtlError> {
        let b = self.next_block[plane];
        if b >= self.blocks_per_plane {
            return Err(FtlError::OutOfSpace);
        }
        self.next_block[plane] = b + 1;
        Ok(b)
    }

    fn allocate_striped(&mut self) -> Result<Ppa, FtlError> {
        let plane = self.stripe_cursor;
        self.stripe_cursor = (self.stripe_cursor + 1) % self.planes;
        let (block, wl) = match self.stripe_open[plane] {
            Some((b, w)) if w < self.wls_per_block => (b, w),
            _ => (self.take_block(plane)?, 0),
        };
        self.stripe_open[plane] =
            if wl + 1 < self.wls_per_block { Some((block, wl + 1)) } else { None };
        Ok(Ppa { plane: PlaneId::from_flat(plane, &self.config), block, wl })
    }

    /// Maps `lpn` onto the physical page that already backs `to`
    /// (`mlsense` aliasing: the 2–3 logical pages of one MLC/TLC wordline
    /// share a physical address and differ only in [`PageMeta::ml_page`]).
    ///
    /// # Errors
    ///
    /// [`FtlError::AlreadyMapped`] if `lpn` is taken,
    /// [`FtlError::NotMapped`] if `to` has no mapping.
    pub fn alias(&mut self, lpn: u64, to: u64, meta: PageMeta) -> Result<Ppa, FtlError> {
        if self.map.contains_key(&lpn) {
            return Err(FtlError::AlreadyMapped(lpn));
        }
        let ppa = self.map.get(&to).map(|&(p, _)| p).ok_or(FtlError::NotMapped(to))?;
        self.put(lpn, ppa, meta);
        Ok(ppa)
    }

    /// Re-places an already-mapped logical page under a new hint and
    /// metadata (the §10 background-migration primitive). Returns the old
    /// and new physical addresses; on allocation failure the original
    /// mapping is left untouched.
    ///
    /// # Errors
    ///
    /// Fails if `lpn` is unmapped or the new placement domain is full.
    pub fn remap(
        &mut self,
        lpn: u64,
        hint: PlacementHint,
        meta: PageMeta,
    ) -> Result<(Ppa, Ppa), FtlError> {
        let old = self.map.get(&lpn).map(|&(p, _)| p).ok_or(FtlError::NotMapped(lpn))?;
        let new = match hint {
            PlacementHint::Striped => self.allocate_striped()?,
            PlacementHint::Grouped { group, plane } => self.allocate_grouped(group, plane)?,
        };
        self.put(lpn, new, meta);
        Ok((old, new))
    }

    /// Blocks already allocated per flat plane — the block pressure the
    /// device layer consults to spread placement groups across dies.
    pub fn plane_pressures(&self) -> &[u32] {
        &self.next_block
    }

    /// The flat plane the next striped allocation would land on, without
    /// allocating (the round-robin cursor's position).
    pub fn next_striped_plane(&self) -> usize {
        self.stripe_cursor
    }

    /// The flat plane a grouped allocation with this key and affinity
    /// would land on, without allocating — existing groups answer from
    /// their cursor, fresh groups from the affinity. Lets the device
    /// decide copyback-vs-rewrite before it commits the remap.
    pub fn group_plane(&self, group: GroupKey, plane: usize) -> usize {
        self.groups.get(&group).map_or(plane, |c| c.plane)
    }

    /// The next wordline of `group`: its open block while it has room, a
    /// fresh block on the group's own plane once it is full (so overflow
    /// keeps the group's pages co-resident per block and on one plane).
    fn allocate_grouped(&mut self, group: GroupKey, plane: usize) -> Result<Ppa, FtlError> {
        let cursor = match self.groups.get(&group).copied() {
            Some(c) if c.next_wl < self.wls_per_block => c,
            Some(c) => GroupCursor { block: self.take_block(c.plane)?, next_wl: 0, ..c },
            None => {
                if plane >= self.planes {
                    return Err(FtlError::PlaneOutOfRange { plane, planes: self.planes });
                }
                let block = self.take_block(plane)?;
                GroupCursor { plane, block, next_wl: 0 }
            }
        };
        let ppa = Ppa {
            plane: PlaneId::from_flat(cursor.plane, &self.config),
            block: cursor.block,
            wl: cursor.next_wl,
        };
        self.groups.insert(group, GroupCursor { next_wl: cursor.next_wl + 1, ..cursor });
        Ok(ppa)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ftl() -> Ftl {
        Ftl::new(&SsdConfig::tiny_test())
    }

    #[test]
    fn striped_allocation_rotates_planes() {
        let mut f = ftl();
        let planes: Vec<usize> = (0..8)
            .map(|i| {
                f.allocate(i, PlacementHint::Striped, PageMeta::conventional())
                    .unwrap()
                    .plane
                    .flat(&SsdConfig::tiny_test())
            })
            .collect();
        // tiny: 2 ch × 2 dies × 2 planes = 8 planes — all distinct.
        let distinct: std::collections::HashSet<_> = planes.iter().collect();
        assert_eq!(distinct.len(), 8);
    }

    fn grouped(group: GroupKey, plane: usize) -> PlacementHint {
        PlacementHint::Grouped { group, plane }
    }

    #[test]
    fn grouped_allocation_shares_one_block() {
        let mut f = ftl();
        let ppas: Vec<Ppa> = (0..8)
            .map(|i| {
                f.allocate(100 + i, grouped(GroupKey::new(42, 0), 0), PageMeta::flash_cosmos(false))
                    .unwrap()
            })
            .collect();
        let first = ppas[0];
        for (i, p) in ppas.iter().enumerate() {
            assert_eq!(p.plane, first.plane);
            assert_eq!(p.block, first.block);
            assert_eq!(p.wl, i as u32, "consecutive wordlines");
        }
    }

    #[test]
    fn full_group_continues_in_a_fresh_block_on_its_plane() {
        let mut f = ftl();
        let key = GroupKey::new(1, 0);
        let first: Vec<Ppa> = (0..8)
            .map(|i| f.allocate(i, grouped(key, 3), PageMeta::flash_cosmos(false)).unwrap())
            .collect();
        assert_eq!(f.plane_pressures()[3], 1);
        // The ninth page names another plane, but the group stays on its
        // own: a fresh block there, from its first wordline.
        let ninth = f.allocate(99, grouped(key, 5), PageMeta::flash_cosmos(false)).unwrap();
        assert_eq!(ninth.plane, first[0].plane);
        assert_eq!(ninth.plane.flat(&SsdConfig::tiny_test()), 3);
        assert_ne!(ninth.block, first[0].block);
        assert_eq!(ninth.wl, 0);
        assert_eq!(f.plane_pressures()[3], 2);
        assert_eq!(f.plane_pressures()[5], 0);
    }

    #[test]
    fn distinct_groups_get_distinct_blocks() {
        let mut f = ftl();
        let a =
            f.allocate(1, grouped(GroupKey::new(8, 0), 3), PageMeta::flash_cosmos(false)).unwrap();
        let b =
            f.allocate(2, grouped(GroupKey::new(16, 0), 3), PageMeta::flash_cosmos(true)).unwrap();
        // Same plane affinity, but the groups still get distinct blocks.
        assert_eq!(a.plane, b.plane);
        assert_eq!(a.plane.flat(&SsdConfig::tiny_test()), 3);
        assert_ne!(a.block, b.block);
        assert!(f.meta(2).unwrap().inverted);
    }

    #[test]
    fn plane_affinity_is_honored_and_validated() {
        let mut f = ftl();
        for plane in [7usize, 0, 5] {
            let ppa = f
                .allocate(
                    plane as u64,
                    grouped(GroupKey::new(plane as u64, 0), plane),
                    PageMeta::flash_cosmos(false),
                )
                .unwrap();
            assert_eq!(ppa.plane.flat(&SsdConfig::tiny_test()), plane);
        }
        let err = f
            .allocate(99, grouped(GroupKey::new(99, 0), 8), PageMeta::flash_cosmos(false))
            .unwrap_err();
        assert_eq!(err, FtlError::PlaneOutOfRange { plane: 8, planes: 8 });
    }

    #[test]
    fn aliases_share_the_physical_page_with_distinct_ml_pages() {
        let mut f = ftl();
        let base = f
            .allocate(
                10,
                grouped(GroupKey::new(5, 0), 0),
                PageMeta::multi_level(ProgramScheme::esp_default(), 0, false),
            )
            .unwrap();
        let lsb_alias =
            f.alias(11, 10, PageMeta::multi_level(ProgramScheme::esp_default(), 1, false)).unwrap();
        assert_eq!(base, lsb_alias, "aliases resolve to the same physical page");
        assert_eq!(f.meta(10).unwrap().ml_page, 0);
        assert_eq!(f.meta(11).unwrap().ml_page, 1);
        assert_eq!(f.alias(11, 10, PageMeta::conventional()), Err(FtlError::AlreadyMapped(11)));
        assert_eq!(f.alias(12, 99, PageMeta::conventional()), Err(FtlError::NotMapped(99)));
        // Trimming the alias leaves the base mapping intact.
        assert_eq!(f.trim(11), Some(base));
        assert_eq!(f.translate(10), Some(base));
    }

    #[test]
    fn double_mapping_rejected_translate_and_trim_work() {
        let mut f = ftl();
        let ppa = f.allocate(7, PlacementHint::Striped, PageMeta::conventional()).unwrap();
        assert_eq!(f.translate(7), Some(ppa));
        assert_eq!(f.mapped_pages(), 1);
        assert_eq!(
            f.allocate(7, PlacementHint::Striped, PageMeta::conventional()),
            Err(FtlError::AlreadyMapped(7))
        );
        assert_eq!(f.trim(7), Some(ppa));
        assert_eq!(f.translate(7), None);
        assert_eq!(f.meta(7), None);
    }

    #[test]
    fn ecc_page_count_follows_every_mapping_change() {
        let mut f = ftl();
        let fc = PageMeta::flash_cosmos(false);
        f.allocate(1, PlacementHint::Striped, PageMeta::conventional()).unwrap();
        f.allocate(2, grouped(GroupKey::new(0, 0), 0), fc).unwrap();
        assert_eq!(f.ecc_pages(), 1);
        f.alias(3, 1, PageMeta::conventional()).unwrap();
        assert_eq!(f.ecc_pages(), 2);
        // A remap that changes the metadata moves the page between counts.
        f.remap(1, PlacementHint::Striped, fc).unwrap();
        f.remap(2, PlacementHint::Striped, PageMeta::conventional()).unwrap();
        assert_eq!(f.ecc_pages(), 2);
        f.trim(2);
        f.trim(2);
        assert_eq!(f.ecc_pages(), 1);
        f.trim(3);
        assert_eq!(f.ecc_pages(), 0);
        assert_eq!(f.mapped_pages(), 1);
    }

    #[test]
    fn metadata_is_recorded() {
        let mut f = ftl();
        f.allocate(1, PlacementHint::Striped, PageMeta::conventional()).unwrap();
        f.allocate(2, grouped(GroupKey::new(0, 0), 0), PageMeta::flash_cosmos(true)).unwrap();
        let conv = f.meta(1).unwrap();
        assert!(conv.randomized && conv.ecc && !conv.inverted);
        assert_eq!(conv.scheme, ProgramScheme::Slc);
        let fc = f.meta(2).unwrap();
        assert!(!fc.randomized && !fc.ecc && fc.inverted);
        assert!(matches!(fc.scheme, ProgramScheme::Esp { .. }));
    }

    #[test]
    fn exhaustion_reports_out_of_space() {
        let cfg = SsdConfig::tiny_test();
        let mut f = Ftl::new(&cfg);
        // Fill plane 0 completely with pinned groups (16 blocks × 8 WLs).
        let mut lpn = 0;
        for g in 0..16u64 {
            for _ in 0..8 {
                f.allocate(lpn, grouped(GroupKey::new(g, 0), 0), PageMeta::flash_cosmos(false))
                    .unwrap();
                lpn += 1;
            }
        }
        let err = f
            .allocate(lpn, grouped(GroupKey::new(128, 0), 0), PageMeta::flash_cosmos(false))
            .unwrap_err();
        assert_eq!(err, FtlError::OutOfSpace);
    }
}
