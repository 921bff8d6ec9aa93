// bitcount — 7 nodes; one of the 17 suite kernels (monomap_frontend::suite).
// Its canonical digest is pinned in tests/frontend_corpus.rs.
kernel bitcount {
  i32 n0 = in(0);
  i32 n1 = in(1);
  i32 n2 = 54;
  rec i32 n3 = 1;
  i32 n4 = n3 >> n2;
  i32 n5 = n4 | n3;
  n3 = n5 @ 1;
  i32 n6 = n5 & n5;
}
