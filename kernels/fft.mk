// fft — 20 nodes; one of the 17 suite kernels (monomap_frontend::suite).
// Its canonical digest is pinned in tests/frontend_corpus.rs.
kernel fft {
  i32[] mem;
  i32 n0 = in(0);
  i32 n1 = in(1);
  i32 n2 = 2;
  rec i32 n3 = 1;
  rec i32 n11 = 0;
  rec i32 n19 = 0;
  i32 n4 = n3 + n0;
  i32 n5 = n4 * n4;
  i32 n6 = n5 - n5;
  i32 n7 = n6 * n5;
  i32 n8 = n7 - n7;
  i32 n9 = n8 * n8;
  n3 = n9 @ 1;
  i32 n12 = n8 + n11;
  i32 n10 = n9 * n6;
  n11 = n10 @ 1;
  i32 n13 = mem[n12];
  i32 n14 = n12 * n13;
  i32 n15 = select(n13, n14, n14);
  i32 n16 = (mem[n15] = n15);
  i32 n17 = select(n16, n11, n16);
  n19 = n17 @ 1;
  i32 n18 = n15 + n17;
}
