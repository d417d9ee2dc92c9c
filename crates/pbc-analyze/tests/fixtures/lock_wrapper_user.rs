#![forbid(unsafe_code)]
// Fixture: acquisitions through `lock-wrapper` accessors declared in a
// sibling file (`owner.rs`, mounted beside this `lib.rs` and scanned
// after it). The nesting below contradicts `owner.a < owner.b` and must
// be reported even though the wrappers are declared in the later file.

mod owner;

impl owner::Pair {
    pub fn backward(&self) -> u32 {
        let gb = self.lock_b();
        let ga = self.lock_a();
        *ga + *gb
    }
}
