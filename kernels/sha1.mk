// sha1 — 21 nodes; one of the 17 suite kernels (monomap_frontend::suite).
// Its canonical digest is pinned in tests/frontend_corpus.rs.
kernel sha1 {
  i32[] mem;
  i32 n0 = in(0);
  i32 n1 = in(1);
  i32 n2 = 59;
  rec i32 n3 = 1;
  rec i32 n17 = 0;
  rec i32 n18 = 0;
  n18 = n17 @ 1;
  i32 n8 = abs(n2);
  i32 n4 = n3 & n2;
  n3 = n4 @ 1;
  i32 n19 = -n17;
  i32 n10 = n8 & n8;
  i32 n5 = n3 ^ n4;
  i32 n20 = -n19;
  i32 n6 = n5 & n3;
  i32 n7 = mem[n5];
  i32 n9 = mem[n7];
  i32 n15 = -n7;
  n17 = n15 @ 1;
  mem[n10] = n9;
  i32 n12 = mem[n9];
  i32 n13 = n6 & n12;
  i32 n14 = abs(n13);
  i32 n16 = n13 | n14;
}
