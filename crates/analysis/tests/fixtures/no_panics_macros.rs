// lint-fixture path=crates/gpu-sim/src/fixture.rs rule=no-panics expect=6
// Every panicking macro fires in library code, once per site.
pub fn checks(v: &[u32], i: usize) -> u32 {
    assert!(i < v.len());
    assert_eq!(v.len(), 4);
    assert_ne!(v[0], 0);
    match i {
        0 => todo!(),
        1 => unimplemented!("later"),
        2 | 3 => v[i],
        _ => unreachable!("checked above"),
    }
}

// Near misses that must NOT fire: debug assertions, paths, strings,
// comments and identifiers that merely share the names.
pub fn quiet(v: &[u32]) -> bool {
    debug_assert!(!v.is_empty());
    debug_assert_eq!(v.len(), 4);
    debug_assert_ne!(v[0], 0);
    // assert!(false) in a comment is fine
    let s = "unreachable!() and todo!() in a string are fine";
    let assert = s.len();
    let _ = std::panic::catch_unwind(|| assert);
    v.len() == assert
}

#[cfg(test)]
mod tests {
    #[test]
    fn test_code_is_exempt() {
        assert!(true);
        assert_eq!(1, 1);
        unreachable!();
    }
}
