// crc32 — 24 nodes; one of the 17 suite kernels (monomap_frontend::suite).
// Its canonical digest is pinned in tests/frontend_corpus.rs.
kernel crc32 {
  i32[] mem;
  i32 n0 = in(0);
  i32 n1 = in(1);
  i32 n2 = 24;
  rec i32 n3 = 1;
  i32 n4 = n3 ^ n0;
  i32 n5 = n4 >> n2;
  i32 n6 = n5 ^ n5;
  i32 n7 = n6 ^ n6;
  i32 n8 = n7 & n7;
  i32 n9 = n8 >> n3;
  i32 n10 = n9 >> n9;
  n3 = n10 @ 1;
  i32 n11 = mem[n10];
  i32 n12 = n10 >> n11;
  i32 n13 = n12 | n12;
  i32 n14 = (mem[n13] = n12);
  i32 n15 = n14 >> n9;
  i32 n16 = n14 & n14;
  i32 n17 = mem[n16];
  i32 n18 = mem[n16];
  i32 n19 = n13 & n17;
  i32 n20 = n18 ^ n19;
  i32 n21 = n19 >> n18;
  i32 n22 = n21 & n21;
  i32 n23 = -n21;
}
