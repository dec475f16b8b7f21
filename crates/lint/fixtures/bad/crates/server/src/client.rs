pub fn read_reply(buf: &[u8]) -> u8 {
    let len = buf.first().copied().expect("the server sent a length");
    buf[len as usize]
}
