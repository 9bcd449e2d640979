// --- FS vs reference model -----------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]
    #[test]
    fn fs_matches_reference_model(
        ops in proptest::collection::vec(
            (0usize..3, 0u64..4, 0u64..50_000, proptest::collection::vec(any::<u8>(), 1..600)),
            1..40
        )
    ) {
        let mut fs = ExtFs::mkfs(1 << 16);
        let mut store = bpfstor::device::SectorStore::new();
        let mut reference: std::collections::HashMap<String, Vec<u8>> =
            std::collections::HashMap::new();
        for (op, file_idx, off, data) in ops {
            let name = format!("f{file_idx}");
            match op {
                // Write (creating on demand).
                0 => {
                    let ino = match fs.open(&name) {
                        Ok(i) => i,
                        Err(_) => fs.create(&name).expect("create"),
                    };
                    fs.write(ino, off, &data, &mut store).expect("write");
                    let entry = reference.entry(name).or_default();
                    let end = off as usize + data.len();
                    if entry.len() < end {
                        entry.resize(end, 0);
                    }
                    entry[off as usize..end].copy_from_slice(&data);
                }
                // Truncate.
                1 => {
                    if let Ok(ino) = fs.open(&name) {
                        let new_size = off % 4_096;
                        fs.truncate(ino, new_size, &mut store).expect("truncate");
                        if let Some(entry) = reference.get_mut(&name) {
                            entry.truncate(new_size as usize);
                        }
                    }
                }
                // Unlink.
                _ => {
                    if fs.open(&name).is_ok() {
                        fs.unlink(&name).expect("unlink");
                        reference.remove(&name);
                    }
                }
            }
            // Full-content comparison for every live file.
            for (name, expect) in &reference {
                let ino = fs.open(name).expect("exists");
                prop_assert_eq!(fs.file_size(ino).expect("size"), expect.len() as u64);
                let got = fs.read(ino, 0, expect.len(), &mut store).expect("read");
                prop_assert_eq!(&got, expect);
            }
        }
    }
}
