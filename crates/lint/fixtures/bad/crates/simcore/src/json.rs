pub fn next_byte(text: &str, pos: usize) -> u8 {
    let bytes = text.as_bytes();
    assert!(pos < bytes.len(), "the caller checked");
    bytes[pos]
}
