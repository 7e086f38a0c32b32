//! FIMI `.dat` I/O — the interchange format of the FIMI'03/'04 workshop
//! repositories the paper draws its kernels and datasets from: one
//! transaction per line, items as whitespace-separated decimal integers.

use crate::db::TransactionDb;
use crate::types::{Item, ItemsetCount};
use std::io::{self, BufRead, BufReader, BufWriter, Read, Write};
use std::path::Path;

/// Reads a FIMI `.dat` database from any reader. Blank lines are skipped;
/// malformed tokens are reported with their line number.
pub fn read_dat<R: Read>(reader: R) -> io::Result<TransactionDb> {
    let mut transactions = Vec::new();
    for (lineno, line) in BufReader::new(reader).lines().enumerate() {
        let line = line?;
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let mut t = Vec::new();
        for tok in line.split_ascii_whitespace() {
            let item: Item = tok.parse().map_err(|e| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("line {}: bad item {tok:?}: {e}", lineno + 1),
                )
            })?;
            t.push(item);
        }
        transactions.push(t);
    }
    Ok(TransactionDb::from_transactions(transactions))
}

/// Reads a FIMI `.dat` file from disk.
pub fn read_dat_file(path: impl AsRef<Path>) -> io::Result<TransactionDb> {
    read_dat(std::fs::File::open(path)?)
}

/// Writes a database in FIMI `.dat` format.
pub fn write_dat<W: Write>(writer: W, db: &TransactionDb) -> io::Result<()> {
    let mut w = BufWriter::new(writer);
    let mut buf = String::new();
    for t in db.transactions() {
        buf.clear();
        for (k, &i) in t.iter().enumerate() {
            if k > 0 {
                buf.push(' ');
            }
            buf.push_str(itoa(i).as_str());
        }
        buf.push('\n');
        w.write_all(buf.as_bytes())?;
    }
    w.flush()
}

/// Writes a database to a `.dat` file on disk.
pub fn write_dat_file(path: impl AsRef<Path>, db: &TransactionDb) -> io::Result<()> {
    write_dat(std::fs::File::create(path)?, db)
}

/// Writes mined patterns in the FIMI output convention:
/// `item item … (support)` per line.
pub fn write_patterns<W: Write>(writer: W, patterns: &[ItemsetCount]) -> io::Result<()> {
    let mut w = BufWriter::new(writer);
    for p in patterns {
        for (k, &i) in p.items.iter().enumerate() {
            if k > 0 {
                write!(w, " ")?;
            }
            write!(w, "{i}")?;
        }
        writeln!(w, " ({})", p.support)?;
    }
    w.flush()
}

/// Magic + version header of the binary database format.
const BIN_MAGIC: &[u8; 8] = b"FPMDB\x00\x00\x01";

/// Writes a database in a compact little-endian binary format (used by
/// the dataset cache: parsing multi-hundred-megabyte `.dat` text on
/// every bench run would dominate the harness).
pub fn write_bin<W: Write>(writer: W, db: &TransactionDb) -> io::Result<()> {
    let mut w = BufWriter::new(writer);
    w.write_all(BIN_MAGIC)?;
    let mut buf = Vec::with_capacity(db.nnz() as usize * 4 + db.len() * 4 + 8);
    buf.extend_from_slice(&(db.len() as u64).to_le_bytes());
    for t in db.transactions() {
        buf.extend_from_slice(&(t.len() as u32).to_le_bytes());
        for &i in t {
            buf.extend_from_slice(&i.to_le_bytes());
        }
    }
    w.write_all(&buf)?;
    w.flush()
}

/// Reads a database written by [`write_bin`].
pub fn read_bin<R: Read>(mut reader: R) -> io::Result<TransactionDb> {
    let mut magic = [0u8; 8];
    reader.read_exact(&mut magic)?;
    if &magic != BIN_MAGIC {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "not an FPMDB binary database (bad magic)",
        ));
    }
    let mut data = Vec::new();
    reader.read_to_end(&mut data)?;
    let mut at = 0usize;
    let take_u32 = |at: &mut usize| -> io::Result<u32> {
        let b: [u8; 4] = data
            .get(*at..*at + 4)
            .ok_or_else(|| io::Error::new(io::ErrorKind::UnexpectedEof, "truncated FPMDB"))?
            .try_into()
            .expect("4-byte slice");
        *at += 4;
        Ok(u32::from_le_bytes(b))
    };
    let n = {
        let lo = take_u32(&mut at)? as u64;
        let hi = take_u32(&mut at)? as u64;
        lo | hi << 32
    };
    // The header counts are untrusted: cap each reservation by what the
    // remaining bytes could hold (4 per length word or item), so a
    // corrupt count ends in `UnexpectedEof` rather than an allocation
    // failure.
    let mut transactions = Vec::with_capacity(n.min((data.len() / 4) as u64) as usize);
    for _ in 0..n {
        let len = take_u32(&mut at)? as usize;
        let mut t = Vec::with_capacity(len.min((data.len() - at) / 4));
        for _ in 0..len {
            t.push(take_u32(&mut at)?);
        }
        transactions.push(t);
    }
    Ok(TransactionDb::from_transactions(transactions))
}

/// Binary file convenience wrappers.
pub fn write_bin_file(path: impl AsRef<Path>, db: &TransactionDb) -> io::Result<()> {
    write_bin(std::fs::File::create(path)?, db)
}

/// Reads a binary database file written by [`write_bin_file`].
pub fn read_bin_file(path: impl AsRef<Path>) -> io::Result<TransactionDb> {
    read_bin(std::fs::File::open(path)?)
}

fn itoa(mut v: u32) -> String {
    // Tiny formatter to avoid the fmt machinery in the bulk writer path.
    if v == 0 {
        return "0".into();
    }
    let mut b = [0u8; 10];
    let mut i = b.len();
    while v > 0 {
        i -= 1;
        b[i] = b'0' + (v % 10) as u8;
        v /= 10;
    }
    String::from_utf8_lossy(&b[i..]).into_owned()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_basic() {
        let input = "1 2 3\n\n5 1\n7\n";
        let db = read_dat(input.as_bytes()).unwrap();
        assert_eq!(db.len(), 3);
        assert_eq!(db.transactions()[0], vec![1, 2, 3]);
        assert_eq!(db.transactions()[1], vec![1, 5]); // sorted
        assert_eq!(db.n_items(), 8);
    }

    #[test]
    fn read_rejects_garbage() {
        let err = read_dat("1 x 3\n".as_bytes()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("line 1"));
    }

    #[test]
    fn roundtrip() {
        let db = TransactionDb::from_transactions(vec![vec![0, 10, 200], vec![5], vec![3, 4]]);
        let mut buf = Vec::new();
        write_dat(&mut buf, &db).unwrap();
        let back = read_dat(buf.as_slice()).unwrap();
        assert_eq!(back, db);
    }

    #[test]
    fn pattern_output_format() {
        let ps = vec![
            ItemsetCount { items: vec![1, 2], support: 10 },
            ItemsetCount { items: vec![7], support: 3 },
        ];
        let mut buf = Vec::new();
        write_patterns(&mut buf, &ps).unwrap();
        assert_eq!(String::from_utf8(buf).unwrap(), "1 2 (10)\n7 (3)\n");
    }

    #[test]
    fn itoa_matches_display() {
        for v in [0u32, 1, 9, 10, 99, 12345, u32::MAX] {
            assert_eq!(itoa(v), v.to_string());
        }
    }

    #[test]
    fn bin_roundtrip() {
        let db = TransactionDb::from_transactions(vec![
            vec![0, 10, 200_000],
            vec![],
            vec![5],
            (0..100).collect(),
        ]);
        let mut buf = Vec::new();
        write_bin(&mut buf, &db).unwrap();
        assert_eq!(read_bin(buf.as_slice()).unwrap(), db);
    }

    #[test]
    fn bin_rejects_bad_magic() {
        let err = read_bin(&b"NOTFPMDB123"[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn bin_rejects_truncation() {
        let db = TransactionDb::from_transactions(vec![vec![1, 2, 3]]);
        let mut cut = Vec::new();
        write_bin(&mut cut, &db).unwrap();
        cut.truncate(cut.len() - 2);
        // Corrupt headers whose counts no remaining bytes back: 2^40
        // transactions, and one transaction of u32::MAX items. Neither
        // may size an allocation from the claim.
        let header = |n: u64, len: u32, body: &[u8]| {
            let mut buf = BIN_MAGIC.to_vec();
            buf.extend_from_slice(&n.to_le_bytes());
            buf.extend_from_slice(&len.to_le_bytes());
            buf.extend_from_slice(body);
            buf
        };
        for buf in [cut, header(1 << 40, 3, &[]), header(1, u32::MAX, &[7, 0, 0, 0, 9, 0, 0, 0])] {
            let err = read_bin(buf.as_slice()).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        }
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir().join("fpm_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.dat");
        let db = TransactionDb::from_transactions(vec![vec![1, 2], vec![3]]);
        write_dat_file(&path, &db).unwrap();
        assert_eq!(read_dat_file(&path).unwrap(), db);
        std::fs::remove_file(&path).ok();
    }
}
