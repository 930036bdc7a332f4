-- Appendix A / Section 3.1.3 schema for schema-aware macro linting.
-- Executed on a scratch instance of the embedded engine
-- (sqlsema.FromDDL), whose catalog the analyzers then read: the
-- <table>_pkey unique indexes, the secondary indexes the workload
-- generator builds, and the planner's row estimates for the seed INSERT
-- rows below (what the sqlperf analyzer reports) are the engine's own.
-- A statement the engine refuses fails `macrocheck -schema`.

CREATE TABLE urldb (
  url VARCHAR(255) NOT NULL PRIMARY KEY,
  title VARCHAR(255),
  description VARCHAR(1024));
CREATE INDEX urldb_title ON urldb (title);

CREATE TABLE customers (
  custid INTEGER NOT NULL PRIMARY KEY,
  name VARCHAR(64) NOT NULL,
  city VARCHAR(64));

CREATE TABLE products (
  prodid INTEGER NOT NULL PRIMARY KEY,
  custid INTEGER NOT NULL,
  product_name VARCHAR(64) NOT NULL,
  price DOUBLE NOT NULL,
  qty INTEGER NOT NULL);
CREATE INDEX products_custid ON products (custid);
CREATE INDEX products_name ON products (product_name);

INSERT INTO urldb VALUES
  ('http://www.ibm.com/data', 'IBM Data', 'database systems'),
  ('http://www.w3.org/', 'W3C', 'web standards'),
  ('http://www.research.ibm.com/', 'IBM Research', 'systems research');
INSERT INTO customers VALUES
  (10000, 'Celdial Inc', 'Austin'),
  (10100, 'Acme Corp', 'Armonk');
INSERT INTO products VALUES
  (1, 10000, 'bikes mountain', 429.99, 4),
  (2, 10000, 'helmets pro', 59.95, 10),
  (3, 10100, 'locks classic', 19.90, 7);
