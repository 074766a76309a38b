//! Slotted page layout for variable-length cells.
//!
//! Every B+tree node page uses the classic slotted layout: a fixed header,
//! a slot directory growing forward from the header, and cell contents
//! growing backward from the end of the page.
//!
//! ```text
//! 0        2        4          6        8        12
//! ┌────────┬────────┬──────────┬────────┬────────┬──────────────┬───···───┐
//! │ kind   │ count  │ free_end │ (pad)  │ next   │ slot dir ... │  cells  │
//! └────────┴────────┴──────────┴────────┴────────┴──────────────┴───···───┘
//!            u16      u16                 u32      4 bytes/slot   ← grows
//! ```
//!
//! * `kind` distinguishes meta / leaf / internal / blob-overflow pages;
//! * `count` is the number of live slots;
//! * `free_end` is the lowest byte offset used by cell contents;
//! * `next` is the next-leaf page for leaves, the leftmost child for
//!   internal nodes, and the next link of the root blob for the meta page
//!   and blob-overflow pages.
//!
//! Cells are opaque byte strings to this module; the B+tree layer encodes
//! keys, values and child pointers inside them.

use crate::page::{get_u16, get_u32, put_u16, put_u32, PAGE_SIZE};

/// Byte offset where the slot directory begins.
pub const HEADER_SIZE: usize = 12;
/// Bytes per slot directory entry (`u16` offset + `u16` length).
pub const SLOT_SIZE: usize = 4;

/// Page kind: B+tree leaf node (kind 0 is a zeroed page that holds no node).
pub const KIND_LEAF: u16 = 1;
/// Page kind: B+tree internal node.
pub const KIND_INTERNAL: u16 = 2;
/// Page kind: B+tree metadata page.
pub const KIND_META: u16 = 3;
/// Page kind: an overflow link of a B+tree's root blob (raw bytes after the
/// header, no cells; `next` names the following link).
pub const KIND_BLOB: u16 = 4;

const OFF_KIND: usize = 0;
const OFF_COUNT: usize = 2;
const OFF_FREE_END: usize = 4;
const OFF_NEXT: usize = 8;

/// Initializes `page` as an empty slotted page of the given kind.
pub fn init(page: &mut [u8], kind: u16) {
    page.fill(0);
    put_u16(page, OFF_KIND, kind);
    put_u16(page, OFF_COUNT, 0);
    put_u16(page, OFF_FREE_END, PAGE_SIZE as u16);
    put_u32(page, OFF_NEXT, u32::MAX);
}

/// The page kind written by [`init`].
pub fn kind(page: &[u8]) -> u16 {
    get_u16(page, OFF_KIND)
}

/// Number of live cells.
pub fn cell_count(page: &[u8]) -> usize {
    get_u16(page, OFF_COUNT) as usize
}

/// The `next` pointer (next leaf / leftmost child), `u32::MAX` when unset.
pub fn next(page: &[u8]) -> u32 {
    get_u32(page, OFF_NEXT)
}

/// Sets the `next` pointer.
pub fn set_next(page: &mut [u8], next: u32) {
    put_u32(page, OFF_NEXT, next);
}

fn free_end(page: &[u8]) -> usize {
    let fe = get_u16(page, OFF_FREE_END) as usize;
    if fe == 0 {
        PAGE_SIZE
    } else {
        fe
    }
}

/// Bytes available for one more cell (content plus its slot entry).
pub fn free_space(page: &[u8]) -> usize {
    let dir_end = HEADER_SIZE + cell_count(page) * SLOT_SIZE;
    free_end(page).saturating_sub(dir_end)
}

/// `true` when a cell of `len` bytes still fits.
pub fn can_insert(page: &[u8], len: usize) -> bool {
    free_space(page) >= len + SLOT_SIZE
}

/// Bytes of cell payload a freshly initialized page can hold, assuming
/// `cells` cells (useful for computing node fan-out bounds).
pub fn payload_capacity(cells: usize) -> usize {
    PAGE_SIZE - HEADER_SIZE - cells * SLOT_SIZE
}

/// Returns the cell at `idx`.
///
/// # Panics
/// Panics if `idx` is out of bounds or the slot is corrupt.
pub fn cell(page: &[u8], idx: usize) -> &[u8] {
    assert!(idx < cell_count(page), "cell index {idx} out of bounds");
    let slot = HEADER_SIZE + idx * SLOT_SIZE;
    let off = get_u16(page, slot) as usize;
    let len = get_u16(page, slot + 2) as usize;
    &page[off..off + len]
}

/// Appends a cell at the end of the slot directory.
///
/// Returns `false` (leaving the page untouched) when it does not fit.
pub fn push_cell(page: &mut [u8], bytes: &[u8]) -> bool {
    insert_cell_at(page, cell_count(page), bytes)
}

/// Inserts a cell so that it becomes slot `idx`, shifting later slots right.
///
/// Returns `false` (leaving the page untouched) when it does not fit.
pub fn insert_cell_at(page: &mut [u8], idx: usize, bytes: &[u8]) -> bool {
    let count = cell_count(page);
    assert!(idx <= count, "slot index {idx} out of bounds for insert");
    if !can_insert(page, bytes.len()) {
        return false;
    }
    // Write the cell content just below the current free end.
    let new_end = free_end(page) - bytes.len();
    page[new_end..new_end + bytes.len()].copy_from_slice(bytes);
    // Shift the slot directory entries after idx one slot to the right.
    let dir_start = HEADER_SIZE + idx * SLOT_SIZE;
    let dir_end = HEADER_SIZE + count * SLOT_SIZE;
    page.copy_within(dir_start..dir_end, dir_start + SLOT_SIZE);
    put_u16(page, dir_start, new_end as u16);
    put_u16(page, dir_start + 2, bytes.len() as u16);
    put_u16(page, OFF_COUNT, (count + 1) as u16);
    put_u16(page, OFF_FREE_END, new_end as u16);
    true
}

/// Removes slot `idx`, shifting later slots left.
///
/// The cell's content bytes are *not* reclaimed until the page is rewritten
/// (the B+tree rewrites nodes wholesale on structural changes), so
/// [`free_space`] does not grow.
pub fn remove_cell(page: &mut [u8], idx: usize) {
    let count = cell_count(page);
    assert!(idx < count, "slot index {idx} out of bounds for remove");
    let dir_start = HEADER_SIZE + idx * SLOT_SIZE;
    let dir_end = HEADER_SIZE + count * SLOT_SIZE;
    page.copy_within(dir_start + SLOT_SIZE..dir_end, dir_start);
    put_u16(page, OFF_COUNT, (count - 1) as u16);
}

/// Reads every cell into owned byte vectors, in slot order.
pub fn read_cells(page: &[u8]) -> Vec<Vec<u8>> {
    (0..cell_count(page))
        .map(|i| cell(page, i).to_vec())
        .collect()
}

/// Re-initializes the page (same kind, preserved `next`) and writes `cells`
/// in order, compacting all free space.
///
/// # Panics
/// Panics if the cells collectively do not fit — callers must split first.
pub fn rewrite(page: &mut [u8], kind_value: u16, next_value: u32, cells: &[Vec<u8>]) {
    init(page, kind_value);
    set_next(page, next_value);
    for c in cells {
        assert!(
            push_cell(page, c),
            "rewrite overflow: {} cells / {} bytes do not fit in one page",
            cells.len(),
            cells.iter().map(Vec::len).sum::<usize>()
        );
    }
}

/// Total bytes a set of cells needs inside one page (contents + slots +
/// header); used by the B+tree to decide when to split.
pub fn required_size(cell_lens: impl IntoIterator<Item = usize>) -> usize {
    let mut total = HEADER_SIZE;
    for len in cell_lens {
        total += len + SLOT_SIZE;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::page::PageBuf;

    #[test]
    fn init_and_header_round_trip() {
        let mut p = PageBuf::zeroed();
        init(p.as_mut_slice(), KIND_LEAF);
        assert_eq!(kind(p.as_slice()), KIND_LEAF);
        assert_eq!(cell_count(p.as_slice()), 0);
        assert_eq!(next(p.as_slice()), u32::MAX);
        set_next(p.as_mut_slice(), 17);
        assert_eq!(next(p.as_slice()), 17);
        assert_eq!(free_space(p.as_slice()), PAGE_SIZE - HEADER_SIZE);
    }

    #[test]
    fn push_and_read_cells() {
        let mut p = PageBuf::zeroed();
        init(p.as_mut_slice(), KIND_LEAF);
        assert!(push_cell(p.as_mut_slice(), b"alpha"));
        assert!(push_cell(p.as_mut_slice(), b"b"));
        assert!(push_cell(p.as_mut_slice(), b"charlie"));
        assert_eq!(cell_count(p.as_slice()), 3);
        assert_eq!(cell(p.as_slice(), 0), b"alpha");
        assert_eq!(cell(p.as_slice(), 1), b"b");
        assert_eq!(cell(p.as_slice(), 2), b"charlie");
        assert_eq!(
            read_cells(p.as_slice()),
            vec![b"alpha".to_vec(), b"b".to_vec(), b"charlie".to_vec()]
        );
    }

    #[test]
    fn insert_at_keeps_order_and_remove_shifts() {
        let mut p = PageBuf::zeroed();
        init(p.as_mut_slice(), KIND_INTERNAL);
        assert!(push_cell(p.as_mut_slice(), b"b"));
        assert!(push_cell(p.as_mut_slice(), b"d"));
        assert!(insert_cell_at(p.as_mut_slice(), 1, b"c"));
        assert!(insert_cell_at(p.as_mut_slice(), 0, b"a"));
        let cells = read_cells(p.as_slice());
        assert_eq!(
            cells,
            vec![b"a".to_vec(), b"b".to_vec(), b"c".to_vec(), b"d".to_vec()]
        );
        remove_cell(p.as_mut_slice(), 2);
        assert_eq!(
            read_cells(p.as_slice()),
            vec![b"a".to_vec(), b"b".to_vec(), b"d".to_vec()]
        );
    }

    #[test]
    fn page_reports_full_rather_than_overflowing() {
        let mut p = PageBuf::zeroed();
        init(p.as_mut_slice(), KIND_LEAF);
        let cell_bytes = vec![7u8; 100];
        let mut inserted = 0usize;
        while push_cell(p.as_mut_slice(), &cell_bytes) {
            inserted += 1;
        }
        // 100-byte cells + 4-byte slots in a 4 KiB page minus the header.
        let expected = (PAGE_SIZE - HEADER_SIZE) / (100 + SLOT_SIZE);
        assert_eq!(inserted, expected);
        assert!(!can_insert(p.as_slice(), 100));
        // All cells are still intact.
        for i in 0..inserted {
            assert_eq!(cell(p.as_slice(), i), cell_bytes.as_slice());
        }
    }

    #[test]
    fn rewrite_compacts_and_preserves_next() {
        let mut p = PageBuf::zeroed();
        init(p.as_mut_slice(), KIND_LEAF);
        for i in 0..10u8 {
            assert!(push_cell(p.as_mut_slice(), &[i; 64]));
        }
        let before_free = free_space(p.as_slice());
        // Keep only every other cell and compact.
        let keep: Vec<Vec<u8>> = read_cells(p.as_slice()).into_iter().step_by(2).collect();
        rewrite(p.as_mut_slice(), KIND_LEAF, 42, &keep);
        assert_eq!(cell_count(p.as_slice()), 5);
        assert_eq!(next(p.as_slice()), 42);
        assert!(free_space(p.as_slice()) > before_free);
        assert_eq!(cell(p.as_slice(), 0), &[0u8; 64]);
        assert_eq!(cell(p.as_slice(), 4), &[8u8; 64]);
    }

    #[test]
    fn required_size_matches_fill_behaviour() {
        let lens = [100usize; 10];
        let needed = required_size(lens.iter().copied());
        assert_eq!(needed, HEADER_SIZE + 10 * 104);
        assert!(needed < PAGE_SIZE);
    }
}
