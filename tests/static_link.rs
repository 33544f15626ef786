//! On Linux/glibc hosts `csim` links its C runtime statically
//! (`+crt-static` in `.cargo/config.toml`): a static PIE with no program
//! interpreter, so no ld.so, libc.so, libm.so or libgcc_s pages in its
//! resident set. A build that silently drops the flag still passes every
//! other test and only shows up as a third more peak RSS, so this test
//! reads the binary's ELF program headers and fails on a `PT_INTERP`.
//! It checks 64-bit little-endian Linux/glibc builds and is a no-op
//! elsewhere.

/// `p_type` of the program header that names the dynamic loader.
const PT_INTERP: u32 = 3;

/// The `N` bytes of `elf` at `at`, when the image is that long.
fn field<const N: usize>(elf: &[u8], at: usize) -> Option<[u8; N]> {
    elf.get(at..at + N)?.try_into().ok()
}

/// The `p_type` of every program header of a little-endian ELF64 image,
/// or `None` when the bytes are not one.
fn program_header_types(elf: &[u8]) -> Option<Vec<u32>> {
    if elf.get(..6)? != b"\x7fELF\x02\x01" {
        return None;
    }
    let phoff = usize::try_from(u64::from_le_bytes(field(elf, 0x20)?)).ok()?;
    let phentsize = usize::from(u16::from_le_bytes(field(elf, 0x36)?));
    let phnum = usize::from(u16::from_le_bytes(field(elf, 0x38)?));
    (0..phnum).map(|i| Some(u32::from_le_bytes(field(elf, phoff + i * phentsize)?))).collect()
}

#[test]
fn csim_has_no_program_interpreter() {
    if !cfg!(all(
        target_os = "linux",
        target_env = "gnu",
        target_pointer_width = "64",
        target_endian = "little"
    )) {
        return;
    }
    let path = env!("CARGO_BIN_EXE_csim");
    let elf = std::fs::read(path).expect("csim binary is readable");
    let types = program_header_types(&elf).expect("csim is a little-endian ELF64 binary");
    assert!(!types.is_empty(), "csim has no program headers");
    assert!(
        !types.contains(&PT_INTERP),
        "{path} has a PT_INTERP program header: it was linked dynamically. \
         Check that .cargo/config.toml's Linux/glibc target table still sets \
         `-C target-feature=+crt-static`, and that no RUSTFLAGS (or \
         CARGO_BUILD_RUSTFLAGS) override replaced it."
    );
}
