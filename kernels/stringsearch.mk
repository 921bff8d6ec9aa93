// stringsearch — 28 nodes; one of the 17 suite kernels (monomap_frontend::suite).
// Its canonical digest is pinned in tests/frontend_corpus.rs.
kernel stringsearch {
  i32[] mem;
  i32 n0 = in(0);
  i32 n1 = in(1);
  i32 n2 = 49;
  rec i32 n3 = 1;
  i32 n8 = mem[n0];
  i32 n4 = n3 == n2;
  i32 n9 = min(n8, n8);
  i32 n5 = n4 == n0;
  n3 = n5 @ 1;
  i32 n6 = n5 - n5;
  i32 n7 = n2 < n6;
  i32 n10 = (mem[n8] = n6);
  i32 n11 = min(n10, n10);
  i32 n12 = select(n11, n11, n11);
  i32 n13 = (mem[n12] = n12);
  i32 n14 = mem[n13];
  i32 n15 = max(n13, n14);
  i32 n16 = n15 - n15;
  i32 n17 = min(n13, n16);
  i32 n18 = out(n16);
  i32 n20 = mem[n17];
  i32 n19 = min(n16, n18);
  i32 n21 = n20 == n18;
  i32 n22 = n19 < n21;
  i32 n23 = n22 < n22;
  i32 n24 = n22 < n23;
  i32 n25 = n24 - n23;
  i32 n26 = n25 - n23;
  i32 n27 = max(n26, n26);
}
