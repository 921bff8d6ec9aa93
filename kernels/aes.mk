// aes — 23 nodes; one of the 17 suite kernels (monomap_frontend::suite).
// Its canonical digest is pinned in tests/frontend_corpus.rs.
kernel aes {
  i32[] mem;
  i32 n0 = in(0);
  i32 n1 = in(1);
  i32 n2 = 62;
  rec i32 n3 = 1;
  rec i32 n22 = 0;
  i32 n4 = n3 ^ n2;
  i32 n5 = n4 ^ n4;
  i32 n6 = n5 | n3;
  i32 n7 = n6 & n2;
  i32 n8 = n7 >> n5;
  i32 n9 = n8 & n8;
  i32 n10 = n9 & n8;
  i32 n11 = n10 << n10;
  i32 n12 = n11 | n9;
  i32 n13 = n12 | n12;
  i32 n14 = n13 & n12;
  i32 n15 = n14 ^ n4;
  i32 n19 = abs(n14);
  i32 n16 = n15 & n14;
  n3 = n16 @ 1;
  i32 n20 = n19 | n19;
  n22 = n20 @ 1;
  i32 n17 = n16 ^ n13;
  i32 n18 = n16 >> n15;
  i32 n21 = mem[n20];
}
