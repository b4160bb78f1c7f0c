//! Path helpers: resolve `/a/b/c` through the dentry namespace.

use cfs_types::{CfsError, FileType, Inode, InodeId, Result};

use crate::client::Client;

/// Split a normalized path into components. Rejects empty components and
/// `.`/`..` (the client API is handle-based; relative traversal belongs to
/// the shell layer above).
pub fn split_path(path: &str) -> Result<Vec<&str>> {
    let trimmed = path.trim_matches('/');
    if trimmed.is_empty() {
        return Ok(Vec::new());
    }
    let parts: Vec<&str> = trimmed.split('/').collect();
    for p in &parts {
        if p.is_empty() || *p == "." || *p == ".." {
            return Err(CfsError::InvalidArgument(format!("bad path {path:?}")));
        }
    }
    Ok(parts)
}

impl Client {
    /// Resolve an absolute path to its inode, following directories (but
    /// not symlinks — callers decide whether to dereference).
    pub fn resolve(&self, path: &str) -> Result<Inode> {
        let mut cur = self.root();
        let parts = split_path(path)?;
        if parts.is_empty() {
            return self.stat(cur);
        }
        for (i, part) in parts.iter().enumerate() {
            let dentry = self.lookup(cur, part)?;
            if i + 1 == parts.len() {
                return self.stat(dentry.inode);
            }
            if dentry.file_type != FileType::Dir {
                return Err(CfsError::NotADirectory(dentry.inode));
            }
            cur = dentry.inode;
        }
        unreachable!("loop returns on the last component")
    }

    /// `mkdir -p`: create every missing directory along `path`, returning
    /// the final directory's inode.
    pub fn mkdir_all(&self, path: &str) -> Result<InodeId> {
        let mut cur = self.root();
        for part in split_path(path)? {
            match self.lookup(cur, part) {
                Ok(d) if d.file_type == FileType::Dir => cur = d.inode,
                Ok(d) => return Err(CfsError::NotADirectory(d.inode)),
                Err(CfsError::NotFound(_)) => match self.mkdir(cur, part) {
                    Ok(ino) => cur = ino.id,
                    // Concurrent creator won the race: use theirs.
                    Err(CfsError::Exists(_)) => {
                        let d = self.lookup(cur, part)?;
                        if d.file_type != FileType::Dir {
                            return Err(CfsError::NotADirectory(d.inode));
                        }
                        cur = d.inode;
                    }
                    Err(e) => return Err(e),
                },
                Err(e) => return Err(e),
            }
        }
        Ok(cur)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_normalizes_slashes() {
        assert_eq!(split_path("/a/b/c").unwrap(), vec!["a", "b", "c"]);
        assert_eq!(split_path("a/b").unwrap(), vec!["a", "b"]);
        assert_eq!(split_path("/").unwrap(), Vec::<&str>::new());
        assert_eq!(split_path("").unwrap(), Vec::<&str>::new());
    }

    #[test]
    fn split_rejects_dots_and_empties() {
        assert!(split_path("/a//b").is_err());
        assert!(split_path("/a/./b").is_err());
        assert!(split_path("/a/../b").is_err());
    }
}
